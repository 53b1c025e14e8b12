// Package halo implements ghost-cell ("halo") management for the 1-D
// decomposed solver: packing and unpacking of x-plane slabs, blocking and
// non-blocking exchange protocols, and the deep-halo schedule of Kjolstad &
// Snir used by the paper (§V.A): with ghost depth d on a lattice whose
// particles cross k planes per step, each rank keeps W = d·k ghost planes
// per side and exchanges them only every d steps, recomputing the ghost
// region locally in between.
package halo

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Tags for the two message directions. "ToRight" data flows rightward: a
// rank's right border planes travel to its right neighbor's left ghost.
const (
	TagToRight = 0x100
	TagToLeft  = 0x101
)

// PackPlanes copies all Q velocities of x-planes [x0,x1) of f into buf and
// returns the number of values packed. Both layouts store whole x-planes
// contiguously, so packing is a handful of block copies. The wire format
// follows the field layout (velocity-major for SoA, cell-major for AoS);
// both endpoints of an exchange must therefore use the same layout, which
// the solver guarantees.
func PackPlanes(f *grid.Field, x0, x1 int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 {
		return 0
	}
	if f.Layout == grid.AoS {
		return copy(buf, f.Data[x0*plane*f.Q:x1*plane*f.Q])
	}
	n := 0
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		n += copy(buf[n:n+np], blk[x0*plane:x1*plane])
	}
	return n
}

// UnpackPlanes is the inverse of PackPlanes.
func UnpackPlanes(f *grid.Field, x0, x1 int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 {
		return 0
	}
	if f.Layout == grid.AoS {
		return copy(f.Data[x0*plane*f.Q:x1*plane*f.Q], buf[:np*f.Q])
	}
	n := 0
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		n += copy(blk[x0*plane:x1*plane], buf[n:n+np])
	}
	return n
}

// PackPlanesVel packs only the listed velocities of planes [x0,x1), in list
// order. Used by the no-ghost-cell ("Orig") protocol, which ships only the
// populations that actually crossed the boundary during streaming.
func PackPlanesVel(f *grid.Field, x0, x1 int, vels []int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 || len(vels) == 0 {
		return 0
	}
	n := 0
	if f.Layout == grid.AoS {
		for _, v := range vels {
			for c := x0 * plane; c < x1*plane; c++ {
				buf[n] = f.Data[c*f.Q+v]
				n++
			}
		}
		return n
	}
	for _, v := range vels {
		blk := f.V(v)
		n += copy(buf[n:n+np], blk[x0*plane:x1*plane])
	}
	return n
}

// UnpackPlanesVel is the inverse of PackPlanesVel.
func UnpackPlanesVel(f *grid.Field, x0, x1 int, vels []int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 || len(vels) == 0 {
		return 0
	}
	n := 0
	if f.Layout == grid.AoS {
		for _, v := range vels {
			for c := x0 * plane; c < x1*plane; c++ {
				f.Data[c*f.Q+v] = buf[n]
				n++
			}
		}
		return n
	}
	for _, v := range vels {
		blk := f.V(v)
		n += copy(blk[x0*plane:x1*plane], buf[n:n+np])
	}
	return n
}

// wrapShort is the ghost span, in values, up to which wrapAxis copies with
// an indexed loop: a runtime memmove call costs more than the handful of
// values on a strided z face.
const wrapShort = 32

// wrapAxis fills the ghost layers of one axis of f periodically from its
// own borders, in place: low ghost [0,w) <- high border [own, own+w) and
// high ghost [w+own, 2w+own) <- low border [w, 2w), across the full
// extent of the other axes. The field's extent on axis must be own+2·w
// with own ≥ w, so reads touch owned cells only and writes ghosts only.
//
// In both layouts Data is a run of equal blocks, each holding the whole
// axis as dims[axis] stripes of inner contiguous values: per (velocity)
// for x, per (velocity, x) for y and per (velocity, x, y) z-row for z in
// SoA; AoS folds the velocities into inner instead.
func wrapAxis(f *grid.Field, axis, own, w int) {
	dims := [3]int{f.D.NX, f.D.NY, f.D.NZ}
	inner := 1
	if f.Layout == grid.AoS {
		inner = f.Q
	}
	for b := axis + 1; b < 3; b++ {
		inner *= dims[b]
	}
	block := inner * dims[axis]
	g, n := w*inner, own*inner // ghost and owned spans, in values
	data := f.Data
	if g > wrapShort {
		for off := 0; off < len(data); off += block {
			row := data[off : off+block]
			copy(row[:g], row[n:n+g])
			copy(row[g+n:], row[g:2*g])
		}
		return
	}
	for off := 0; off < len(data); off += block {
		row := data[off : off+block : off+block]
		for k := 0; k < g; k++ {
			row[k] = row[n+k]
			row[g+n+k] = row[g+k]
		}
	}
}

// Exchanger owns the send/receive buffers for one rank's halo exchange;
// a rank that is its own left and right neighbor has none. The field
// geometry is fixed at construction: own interior planes with
// width ghost planes on each x side, so plane x ∈ [width, width+own) is
// owned, [0,width) is the left ghost and [width+own, width+2·width) the
// right ghost.
type Exchanger struct {
	Q     int
	Dims  grid.Dims // field dims including ghosts
	Own   int       // owned planes
	Width int       // ghost planes per side (depth · k)
	Left  int       // left neighbor rank
	Right int       // right neighbor rank

	// Rec, when non-nil, receives pack/wire/unpack spans and per-exchange
	// traffic counts. The slab exchange is attributed to axis 0 (x).
	Rec *obs.Recorder

	sendL, sendR []float64
	recvL, recvR []float64
	reqL, reqR   *comm.Request
}

// NewExchanger builds an exchanger for a field of the given shape. self is
// this rank's ID: when both neighbors are self the exchanger only wraps
// locally (ExchangeLocal) and allocates no staging buffers.
func NewExchanger(q int, d grid.Dims, own, width, self, left, right int) (*Exchanger, error) {
	if d.NX != own+2*width {
		return nil, fmt.Errorf("halo: field NX %d != own %d + 2*width %d", d.NX, own, width)
	}
	if width < 1 {
		return nil, fmt.Errorf("halo: width %d < 1", width)
	}
	if own < width {
		// A rank must own at least as many planes as it sends: otherwise a
		// border message would need data from two ranks away, which the
		// nearest-neighbor protocol cannot provide.
		return nil, fmt.Errorf("halo: owned planes %d < halo width %d (grow the domain or reduce depth)", own, width)
	}
	e := &Exchanger{Q: q, Dims: d, Own: own, Width: width, Left: left, Right: right}
	if left != self || right != self {
		n := q * width * d.PlaneCells()
		e.sendL, e.sendR = make([]float64, n), make([]float64, n)
		e.recvL, e.recvR = make([]float64, n), make([]float64, n)
	}
	return e, nil
}

// BytesPerExchange returns the payload bytes this rank sends per exchange
// (both directions).
func (e *Exchanger) BytesPerExchange() int64 {
	return int64(2 * 8 * e.Q * e.Width * e.Dims.PlaneCells())
}

// ExchangeBlocking performs a full-width halo exchange with blocking
// sends/receives (the pre-NB-C protocol, §V.E "naive implementation used
// blocking communication").
func (e *Exchanger) ExchangeBlocking(r *comm.Rank, f *grid.Field) {
	t0 := e.Rec.Begin()
	e.packBorders(f)
	// Eager buffered sends cannot deadlock; order recvs after both sends.
	r.Send(e.Left, TagToLeft, e.sendL)
	r.Send(e.Right, TagToRight, e.sendR)
	e.Rec.EndAxis(obs.Pack, 0, t0)
	e.Rec.AddComm(0, e.BytesPerExchange(), 2)
	t0 = e.Rec.Begin()
	r.Recv(e.Right, TagToLeft, e.recvR)
	r.Recv(e.Left, TagToRight, e.recvL)
	e.Rec.EndAxis(obs.Wire, 0, t0)
	t0 = e.Rec.Begin()
	e.unpackGhosts(f)
	e.Rec.EndAxis(obs.Unpack, 0, t0)
}

// PostRecvs posts the two ghost receives early (MPI_Irecv before local
// computation, §V.E).
func (e *Exchanger) PostRecvs(r *comm.Rank) {
	e.reqL = r.Irecv(e.Left, TagToRight, e.recvL)
	e.reqR = r.Irecv(e.Right, TagToLeft, e.recvR)
}

// SendBorders packs the border planes of f and sends them non-blocking.
func (e *Exchanger) SendBorders(r *comm.Rank, f *grid.Field) {
	t0 := e.Rec.Begin()
	e.packBorders(f)
	r.Isend(e.Left, TagToLeft, e.sendL)
	r.Isend(e.Right, TagToRight, e.sendR)
	e.Rec.EndAxis(obs.Pack, 0, t0)
	e.Rec.AddComm(0, e.BytesPerExchange(), 2)
}

// WaitUnpack completes the posted receives and fills the ghost planes of f.
// PostRecvs must have been called first.
func (e *Exchanger) WaitUnpack(r *comm.Rank, f *grid.Field) {
	if e.reqL == nil || e.reqR == nil {
		panic("halo: WaitUnpack without PostRecvs")
	}
	t0 := e.Rec.Begin()
	r.Wait(e.reqL, e.reqR)
	e.Rec.EndAxis(obs.Wire, 0, t0)
	e.reqL, e.reqR = nil, nil
	t0 = e.Rec.Begin()
	e.unpackGhosts(f)
	e.Rec.EndAxis(obs.Unpack, 0, t0)
}

// ExchangeNonBlocking is the NB-C protocol as one call: post receives, send
// borders, wait, unpack.
func (e *Exchanger) ExchangeNonBlocking(r *comm.Rank, f *grid.Field) {
	e.PostRecvs(r)
	e.SendBorders(r, f)
	e.WaitUnpack(r, f)
}

// ExchangeLocal fills the ghost planes directly from the owned borders for
// single-rank runs (periodic in x without messaging): the left ghost from
// the right border and the right ghost from the left border, in place. It
// is the fast path used when both neighbors are the rank itself.
func (e *Exchanger) ExchangeLocal(f *grid.Field) {
	t0 := e.Rec.Begin()
	wrapAxis(f, 0, e.Own, e.Width)
	e.Rec.EndAxis(obs.Pack, 0, t0)
}

func (e *Exchanger) packBorders(f *grid.Field) {
	w, own := e.Width, e.Own
	PackPlanes(f, w, 2*w, e.sendL)     // left border -> left neighbor
	PackPlanes(f, own, own+w, e.sendR) // right border -> right neighbor
}

func (e *Exchanger) unpackGhosts(f *grid.Field) {
	w, own := e.Width, e.Own
	UnpackPlanes(f, 0, w, e.recvL)           // left ghost from left neighbor
	UnpackPlanes(f, w+own, w+own+w, e.recvR) // right ghost from right neighbor
}

// CycleExtents returns, for a deep-halo cycle of the given depth on a
// lattice with unit halo width k, the extra planes beyond the owned region
// that remain valid as *inputs* to each step s of the cycle: ext(s) =
// (depth−s)·k. The step may therefore compute outputs on owned ± (ext(s)−k)
// planes; the final step (s = depth−1) computes exactly the owned region.
func CycleExtents(depth, k int) []int {
	ext := make([]int, depth)
	for s := 0; s < depth; s++ {
		ext[s] = (depth - s) * k
	}
	return ext
}
