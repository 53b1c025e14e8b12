package halo

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
)

// wrapPoison marks the ghost cells of the axis under test; every other
// cell holds a distinct positive value.
const wrapPoison = -1.0

// stagedWrap is the oracle for the in-place wrap: the staged
// PackBox→UnpackBox copy through scratch buffers that the local wrap
// used to make.
func stagedWrap(e *CartExchanger, f *grid.Field, axis int) {
	n := e.Q * e.W[axis] * e.crossCells(axis)
	hiBorder, loBorder := make([]float64, n), make([]float64, n)
	lo, hi := e.face(axis, 2)
	PackBox(f, lo, hi, hiBorder)
	lo, hi = e.face(axis, 1)
	PackBox(f, lo, hi, loBorder)
	lo, hi = e.face(axis, 0)
	UnpackBox(f, lo, hi, hiBorder)
	lo, hi = e.face(axis, 3)
	UnpackBox(f, lo, hi, loBorder)
}

// inGhost reports whether (ix,iy,iz) lies in a ghost layer of axis.
func inGhost(e *CartExchanger, axis int, c [3]int) bool {
	return c[axis] < e.W[axis] || c[axis] >= e.W[axis]+e.Own[axis]
}

// TestWrapAxisMatchesStaged checks the in-place wrap bit-for-bit against
// the staged oracle on every axis, both layouts and widths 1–3, with
// unequal extents. The cases cover both the indexed-loop and the copy
// branch of wrapAxis (z SoA spans w values; y at w=3 and z AoS at w≥2
// span more than wrapShort).
func TestWrapAxisMatchesStaged(t *testing.T) {
	const q = 19
	for _, layout := range []grid.Layout{grid.SoA, grid.AoS} {
		for w := 1; w <= 3; w++ {
			// own[1] == w at w=3: the two borders then coincide.
			own := [3]int{4, 3, 5}
			width := [3]int{w, w, w}
			d := grid.Dims{NX: own[0] + 2*w, NY: own[1] + 2*w, NZ: own[2] + 2*w}
			ex, err := NewCartExchanger(q, d, own, width, 0, [3][2]int{{0, 0}, {0, 0}, {0, 0}})
			if err != nil {
				t.Fatal(err)
			}
			for axis := 0; axis < 3; axis++ {
				name := fmt.Sprintf("%v/w=%d/axis=%d", layout, w, axis)
				start := grid.NewField(q, d, layout)
				for v := 0; v < q; v++ {
					for ix := 0; ix < d.NX; ix++ {
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								val := float64(start.Idx(v, d.Index(ix, iy, iz))) + 0.5
								if inGhost(ex, axis, [3]int{ix, iy, iz}) {
									val = wrapPoison
								}
								start.Set(v, ix, iy, iz, val)
							}
						}
					}
				}
				want := grid.NewField(q, d, layout)
				copy(want.Data, start.Data)
				stagedWrap(ex, want, axis)

				got := grid.NewField(q, d, layout)
				copy(got.Data, start.Data)
				ex.ExchangeAxis(nil, got, axis, false)
				compareWrap(t, name, ex, axis, start, got, want)

				if axis == 0 {
					// The slab exchanger's single-rank path is the same x-wrap.
					slab, err := NewExchanger(q, d, own[0], w, 0, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					copy(got.Data, start.Data)
					slab.ExchangeLocal(got)
					compareWrap(t, name+"/slab", ex, axis, start, got, want)
					if n := testing.AllocsPerRun(10, func() { slab.ExchangeLocal(got) }); n != 0 {
						t.Errorf("%s/slab: ExchangeLocal allocates %v times per call", name, n)
					}
				}
				if n := testing.AllocsPerRun(10, func() { ex.ExchangeAxis(nil, got, axis, false) }); n != 0 {
					t.Errorf("%s: local wrap allocates %v times per call", name, n)
				}
			}
		}
	}
}

// compareWrap asserts got equals the oracle bit-for-bit, that no ghost of
// axis is left poisoned, and that every cell outside the axis's ghosts is
// unchanged from start.
func compareWrap(t *testing.T, name string, e *CartExchanger, axis int, start, got, want *grid.Field) {
	t.Helper()
	d := got.D
	for v := 0; v < got.Q; v++ {
		for ix := 0; ix < d.NX; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					g, o := got.At(v, ix, iy, iz), want.At(v, ix, iy, iz)
					if math.Float64bits(g) != math.Float64bits(o) {
						t.Fatalf("%s: (%d,%d,%d,%d) = %v, staged oracle %v", name, v, ix, iy, iz, g, o)
					}
					if inGhost(e, axis, [3]int{ix, iy, iz}) {
						if g == wrapPoison {
							t.Fatalf("%s: ghost (%d,%d,%d,%d) left poisoned", name, v, ix, iy, iz)
						}
					} else if s := start.At(v, ix, iy, iz); g != s {
						t.Fatalf("%s: non-ghost (%d,%d,%d,%d) changed %v -> %v", name, v, ix, iy, iz, s, g)
					}
				}
			}
		}
	}
}

// TestSlabExchangerStaging pins that a rank that is its own left and
// right neighbor gets no staging buffers, while a messaging rank does.
func TestSlabExchangerStaging(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 3, NZ: 2}
	self, err := NewExchanger(2, d, 4, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if self.sendL != nil || self.sendR != nil || self.recvL != nil || self.recvR != nil {
		t.Error("self-neighbor slab exchanger allocated staging buffers")
	}
	// Two ranks: both neighbors are the other rank.
	pair, err := NewExchanger(2, d, 4, 1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{pair.sendL, pair.sendR, pair.recvL, pair.recvR} {
		if len(b) != 2*1*d.PlaneCells() {
			t.Fatalf("messaging slab exchanger buffer len %d, want %d", len(b), 2*d.PlaneCells())
		}
	}
}

// TestCartStagingOnlyForRealNeighbors builds exchangers whose axes are a
// real neighbor pair (x), a self wrap (y) and a bounded undecomposed axis
// (z), once with x periodic and once bounded so each rank has one real and
// one NoNeighbor side on x. Staging must exist only for real sides, the
// exchange must still fill every non-boundary ghost, and the traffic
// accounting must be what it was with staging everywhere.
func TestCartStagingOnlyForRealNeighbors(t *testing.T) {
	const q = 3
	global := [3]int{8, 5, 4}
	w := [3]int{1, 2, 1}
	own := [3]int{global[0] / 2, global[1], global[2]}
	d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
	cross := [3]int{d.NY * d.NZ, d.NX * d.NZ, d.NX * d.NY}
	for _, xBounded := range []bool{false, true} {
		for _, nonblocking := range []bool{false, true} {
			name := fmt.Sprintf("xBounded=%v/nonblocking=%v", xBounded, nonblocking)
			bounded := [3]bool{xBounded, false, true}
			fab := comm.NewFabric(2)
			top, err := fab.CartBounded([3]int{2, 1, 1}, bounded)
			if err != nil {
				t.Fatal(err)
			}
			runErr := fab.Run(func(r *comm.Rank) error {
				nb := top.Neighbors(r.ID)
				ex, err := NewCartExchanger(q, d, own, w, r.ID, nb)
				if err != nil {
					return err
				}
				var wantBytes [3]int64
				for a := 0; a < 3; a++ {
					for s := 0; s < 2; s++ {
						messaging := nb[a][s] != NoNeighbor && nb[a][s] != r.ID
						n := q * w[a] * cross[a]
						if messaging {
							wantBytes[a] += int64(8 * n)
						} else {
							n = 0
						}
						if len(ex.send[a][s]) != n || len(ex.recv[a][s]) != n {
							return fmt.Errorf("%s rank %d axis %d side %d: staging %d/%d values, want %d",
								name, r.ID, a, s, len(ex.send[a][s]), len(ex.recv[a][s]), n)
						}
					}
					if got := ex.BytesPerExchange(a); got != wantBytes[a] {
						return fmt.Errorf("%s rank %d: BytesPerExchange(%d) = %d, want %d", name, r.ID, a, got, wantBytes[a])
					}
				}

				f := grid.NewField(q, d, grid.SoA)
				for i := range f.Data {
					f.Data[i] = wrapPoison
				}
				startX := r.ID * own[0]
				for v := 0; v < q; v++ {
					for ix := 0; ix < own[0]; ix++ {
						for iy := 0; iy < own[1]; iy++ {
							for iz := 0; iz < own[2]; iz++ {
								f.Set(v, w[0]+ix, w[1]+iy, w[2]+iz, encode(v, startX+ix, iy, iz))
							}
						}
					}
				}
				ex.ExchangeAll(r, f, nonblocking)
				if got := ex.AxisBytes(); got != wantBytes {
					return fmt.Errorf("%s rank %d: AxisBytes = %v, want %v", name, r.ID, got, wantBytes)
				}
				wrap := func(g, n int) int { return ((g % n) + n) % n }
				for v := 0; v < q; v++ {
					for ix := 0; ix < d.NX; ix++ {
						gx := startX + ix - w[0]
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								want := encode(v, wrap(gx, global[0]), wrap(iy-w[1], global[1]), iz-w[2])
								// Global boundary faces stay untouched.
								if iz < w[2] || iz >= w[2]+own[2] || (xBounded && (gx < 0 || gx >= global[0])) {
									want = wrapPoison
								}
								if got := f.At(v, ix, iy, iz); got != want {
									return fmt.Errorf("%s rank %d: cell (%d,%d,%d,%d) = %v, want %v",
										name, r.ID, v, ix, iy, iz, got, want)
								}
							}
						}
					}
				}
				return nil
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
		}
	}
}

// BenchmarkCartLocalWrap times the in-place periodic wrap of one axis of
// a 64³-owned D3Q19 SoA box, the single-rank box stepper's self-neighbor
// exchange; the z face is the strided one. Bytes are the ghost values
// written per call.
func BenchmarkCartLocalWrap(b *testing.B) {
	const q = 19
	own, w := [3]int{64, 64, 64}, [3]int{1, 1, 1}
	d := grid.Dims{NX: own[0] + 2, NY: own[1] + 2, NZ: own[2] + 2}
	ex, err := NewCartExchanger(q, d, own, w, 0, [3][2]int{{0, 0}, {0, 0}, {0, 0}})
	if err != nil {
		b.Fatal(err)
	}
	f := grid.NewField(q, d, grid.SoA)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	for axis := 0; axis < 3; axis++ {
		b.Run("xyz"[axis:axis+1], func(b *testing.B) {
			b.SetBytes(int64(8 * 2 * q * w[axis] * ex.crossCells(axis)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.ExchangeAxis(nil, f, axis, false)
			}
		})
	}
}
