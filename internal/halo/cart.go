package halo

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Cartesian halo exchange: the multi-axis generalization of the 1-D
// Exchanger. Faces normal to x keep the fast contiguous-plane path of
// PackPlanes; faces normal to y and z pack strided z-runs. Edge and
// corner ghost cells are covered without dedicated messages by the
// sequential-axis ordering trick: axes exchange one after another, each
// face spanning the full local extent (ghosts included) of the axes
// already exchanged, so diagonal data rides along on the second and third
// hops — exactly the deep-halo ordering argument of Kjolstad & Snir.

// cartTag returns the message tag for data flowing along axis in
// direction dir (0 = toward lower coordinates, 1 = toward higher).
func cartTag(axis, dir int) int { return 0x200 + 2*axis + dir }

// NoNeighbor marks a missing neighbor (a global boundary face of a
// bounded axis) in CartExchanger.Neighbors; it matches comm.NoNeighbor.
const NoNeighbor = -1

// PackBox copies all Q velocities of the axis-aligned box [lo,hi) of f
// into buf and returns the number of values packed. The wire format
// follows the field layout (velocity-major for SoA, cell-major for AoS);
// both endpoints of an exchange must use the same layout. Boxes spanning
// full y/z cross-sections degenerate to the contiguous-plane fast path.
func PackBox(f *grid.Field, lo, hi [3]int, buf []float64) int {
	if fullCross(f.D, lo, hi) {
		return PackPlanes(f, lo[0], hi[0], buf)
	}
	zn := hi[2] - lo[2]
	if zn <= 0 || hi[1] <= lo[1] || hi[0] <= lo[0] {
		return 0
	}
	n := 0
	if f.Layout == grid.AoS {
		q := f.Q
		for ix := lo[0]; ix < hi[0]; ix++ {
			for iy := lo[1]; iy < hi[1]; iy++ {
				off := f.D.Index(ix, iy, lo[2]) * q
				n += copy(buf[n:n+zn*q], f.Data[off:off+zn*q])
			}
		}
		return n
	}
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		for ix := lo[0]; ix < hi[0]; ix++ {
			for iy := lo[1]; iy < hi[1]; iy++ {
				off := f.D.Index(ix, iy, lo[2])
				n += copy(buf[n:n+zn], blk[off:off+zn])
			}
		}
	}
	return n
}

// UnpackBox is the inverse of PackBox.
func UnpackBox(f *grid.Field, lo, hi [3]int, buf []float64) int {
	if fullCross(f.D, lo, hi) {
		return UnpackPlanes(f, lo[0], hi[0], buf)
	}
	zn := hi[2] - lo[2]
	if zn <= 0 || hi[1] <= lo[1] || hi[0] <= lo[0] {
		return 0
	}
	n := 0
	if f.Layout == grid.AoS {
		q := f.Q
		for ix := lo[0]; ix < hi[0]; ix++ {
			for iy := lo[1]; iy < hi[1]; iy++ {
				off := f.D.Index(ix, iy, lo[2]) * q
				n += copy(f.Data[off:off+zn*q], buf[n:n+zn*q])
			}
		}
		return n
	}
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		for ix := lo[0]; ix < hi[0]; ix++ {
			for iy := lo[1]; iy < hi[1]; iy++ {
				off := f.D.Index(ix, iy, lo[2])
				n += copy(blk[off:off+zn], buf[n:n+zn])
			}
		}
	}
	return n
}

// fullCross reports whether the box spans the full y and z extents, the
// precondition for the contiguous x-plane fast path.
func fullCross(d grid.Dims, lo, hi [3]int) bool {
	return lo[1] == 0 && hi[1] == d.NY && lo[2] == 0 && hi[2] == d.NZ
}

// CartExchanger owns the send/receive buffers for one rank's multi-axis
// halo exchange; only sides with a real neighbor have them. The local
// field spans Own[a] + 2·W[a] cells on axis a: [W[a], W[a]+Own[a]) is
// owned, [0, W[a]) the low ghost and [W[a]+Own[a], Own[a]+2·W[a]) the
// high ghost.
type CartExchanger struct {
	Q    int
	Dims grid.Dims // local dims including ghosts
	Own  [3]int    // owned extents
	W    [3]int    // ghost width per side, per axis
	Self int       // this rank's ID (self-neighbor axes wrap locally)
	// Neighbors[axis][0] is the low-side rank, [axis][1] the high-side;
	// they are fixed at construction, which sizes the staging buffers for
	// them. An entry of NoNeighbor marks a global boundary face of a bounded
	// (non-periodic) axis: no message crosses it and no wraparound copy is
	// made — its ghost cells are left for the caller to fill from boundary
	// conditions.
	Neighbors [3][2]int

	// Rec, when non-nil, receives per-axis pack/wire/unpack spans and
	// traffic counts.
	Rec *obs.Recorder

	send, recv [3][2][]float64
	reqs       [3][2]*comm.Request
	axisBytes  [3]int64 // payload bytes sent per axis, accumulated
}

// NewCartExchanger builds an exchanger for a field of the given shape.
func NewCartExchanger(q int, d grid.Dims, own, w [3]int, self int, neighbors [3][2]int) (*CartExchanger, error) {
	dims := [3]int{d.NX, d.NY, d.NZ}
	for a := 0; a < 3; a++ {
		if dims[a] != own[a]+2*w[a] {
			return nil, fmt.Errorf("halo: axis %d extent %d != own %d + 2*width %d", a, dims[a], own[a], w[a])
		}
		if w[a] < 1 {
			return nil, fmt.Errorf("halo: axis %d width %d < 1", a, w[a])
		}
		if own[a] < w[a] {
			// Same nearest-neighbor constraint as the 1-D exchanger: a
			// border message must be owned entirely by one rank.
			return nil, fmt.Errorf("halo: axis %d owned extent %d < halo width %d (grow the domain or reduce depth)", a, own[a], w[a])
		}
	}
	e := &CartExchanger{Q: q, Dims: d, Own: own, W: w, Self: self, Neighbors: neighbors}
	// Only sides that message need staging: a locally wrapped axis writes
	// its ghosts in place, and a NoNeighbor side is never sent or received.
	for a := 0; a < 3; a++ {
		if e.localWrap(a) {
			continue
		}
		n := q * w[a] * e.crossCells(a)
		for s := 0; s < 2; s++ {
			if neighbors[a][s] != NoNeighbor {
				e.send[a][s] = make([]float64, n)
				e.recv[a][s] = make([]float64, n)
			}
		}
	}
	return e, nil
}

// localWrap reports whether both neighbors on axis are this rank, so the
// axis wraps in place instead of messaging.
func (e *CartExchanger) localWrap(axis int) bool {
	return e.Neighbors[axis] == [2]int{e.Self, e.Self}
}

// crossCells returns the number of cells in one face layer normal to
// axis: the product of the full local extents (ghosts included) of the
// other axes — full, because later-axis ghost regions ride along.
func (e *CartExchanger) crossCells(axis int) int {
	dims := [3]int{e.Dims.NX, e.Dims.NY, e.Dims.NZ}
	n := 1
	for b := 0; b < 3; b++ {
		if b != axis {
			n *= dims[b]
		}
	}
	return n
}

// face returns the box of the requested region on axis: region 0 = low
// ghost, 1 = low border, 2 = high border, 3 = high ghost. The box spans
// the full local extent of the other axes.
func (e *CartExchanger) face(axis, region int) (lo, hi [3]int) {
	hi = [3]int{e.Dims.NX, e.Dims.NY, e.Dims.NZ}
	w, own := e.W[axis], e.Own[axis]
	switch region {
	case 0:
		lo[axis], hi[axis] = 0, w
	case 1:
		lo[axis], hi[axis] = w, 2*w
	case 2:
		lo[axis], hi[axis] = own, own+w
	case 3:
		lo[axis], hi[axis] = w+own, 2*w+own
	}
	return lo, hi
}

// Messaging reports whether the axis exchanges real messages: any side
// with a neighbor that is neither this rank (local periodic wrap) nor a
// global boundary face. The overlapped schedule only shrinks its interior
// on messaging axes' account — wraps and boundary fills complete
// synchronously at their slot.
func (e *CartExchanger) Messaging(axis int) bool {
	for s := 0; s < 2; s++ {
		if n := e.Neighbors[axis][s]; n != NoNeighbor && n != e.Self {
			return true
		}
	}
	return false
}

// BytesPerExchange returns the payload bytes this rank sends along axis
// per full exchange: one face payload per side that has a real neighbor —
// zero for self-neighbor (locally wrapped) axes and for boundary faces.
func (e *CartExchanger) BytesPerExchange(axis int) int64 {
	face := int64(8 * e.Q * e.W[axis] * e.crossCells(axis))
	var total int64
	for s := 0; s < 2; s++ {
		if n := e.Neighbors[axis][s]; n != NoNeighbor && n != e.Self {
			total += face
		}
	}
	return total
}

// AxisBytes returns the accumulated payload bytes sent per axis.
func (e *CartExchanger) AxisBytes() [3]int64 { return e.axisBytes }

// ExchangeAll performs a full halo exchange: axes in x, y, z order so
// edges and corners are covered by the ride-along trick. With nonblocking
// set, each axis uses the Irecv/Isend/Waitall protocol with receives
// posted before the sends (§V.E); otherwise blocking eager sends.
func (e *CartExchanger) ExchangeAll(r *comm.Rank, f *grid.Field, nonblocking bool) {
	for axis := 0; axis < 3; axis++ {
		e.ExchangeAxis(r, f, axis, nonblocking)
	}
}

// ExchangeAxis exchanges the faces normal to one axis. Both sides of a
// self-neighbor axis wrap locally without messaging. A NoNeighbor side is
// a global boundary: nothing is sent, received or wrapped there, so no
// wraparound data can ever land in a boundary ghost face. An axis with no
// neighbors on either side (bounded, undecomposed) is a no-op.
func (e *CartExchanger) ExchangeAxis(r *comm.Rank, f *grid.Field, axis int, nonblocking bool) {
	loN, hiN := e.Neighbors[axis][0], e.Neighbors[axis][1]
	if e.localWrap(axis) {
		e.exchangeLocalAxis(f, axis)
		return
	}
	if loN == NoNeighbor && hiN == NoNeighbor {
		return
	}
	if nonblocking {
		e.PostRecvsAxis(r, axis)
		e.SendBordersAxis(r, f, axis)
		e.WaitUnpackAxis(r, f, axis)
		return
	}
	// Eager buffered sends cannot deadlock; order recvs after both sends.
	t0 := e.Rec.Begin()
	var msgs int64
	if loN != NoNeighbor {
		n := e.packFace(f, axis, 1, e.send[axis][0])
		r.Send(loN, cartTag(axis, 0), e.send[axis][0][:n])
		e.axisBytes[axis] += int64(8 * n)
		msgs++
	}
	if hiN != NoNeighbor {
		n := e.packFace(f, axis, 2, e.send[axis][1])
		r.Send(hiN, cartTag(axis, 1), e.send[axis][1][:n])
		e.axisBytes[axis] += int64(8 * n)
		msgs++
	}
	e.Rec.EndAxis(obs.Pack, axis, t0)
	e.Rec.AddComm(axis, e.BytesPerExchange(axis), msgs)
	if hiN != NoNeighbor {
		t0 = e.Rec.Begin()
		r.Recv(hiN, cartTag(axis, 0), e.recv[axis][1])
		e.Rec.EndAxis(obs.Wire, axis, t0)
		t0 = e.Rec.Begin()
		e.unpackFace(f, axis, 3, e.recv[axis][1])
		e.Rec.EndAxis(obs.Unpack, axis, t0)
	}
	if loN != NoNeighbor {
		t0 = e.Rec.Begin()
		r.Recv(loN, cartTag(axis, 1), e.recv[axis][0])
		e.Rec.EndAxis(obs.Wire, axis, t0)
		t0 = e.Rec.Begin()
		e.unpackFace(f, axis, 0, e.recv[axis][0])
		e.Rec.EndAxis(obs.Unpack, axis, t0)
	}
}

// PostRecvsAxis posts the ghost receives for one axis early (boundary
// sides excluded).
func (e *CartExchanger) PostRecvsAxis(r *comm.Rank, axis int) {
	if n := e.Neighbors[axis][0]; n != NoNeighbor {
		e.reqs[axis][0] = r.Irecv(n, cartTag(axis, 1), e.recv[axis][0])
	}
	if n := e.Neighbors[axis][1]; n != NoNeighbor {
		e.reqs[axis][1] = r.Irecv(n, cartTag(axis, 0), e.recv[axis][1])
	}
}

// SendBordersAxis packs and sends the border faces of one axis (boundary
// sides excluded).
func (e *CartExchanger) SendBordersAxis(r *comm.Rank, f *grid.Field, axis int) {
	t0 := e.Rec.Begin()
	var msgs int64
	if n := e.Neighbors[axis][0]; n != NoNeighbor {
		nLo := e.packFace(f, axis, 1, e.send[axis][0])
		r.Isend(n, cartTag(axis, 0), e.send[axis][0][:nLo])
		e.axisBytes[axis] += int64(8 * nLo)
		msgs++
	}
	if n := e.Neighbors[axis][1]; n != NoNeighbor {
		nHi := e.packFace(f, axis, 2, e.send[axis][1])
		r.Isend(n, cartTag(axis, 1), e.send[axis][1][:nHi])
		e.axisBytes[axis] += int64(8 * nHi)
		msgs++
	}
	e.Rec.EndAxis(obs.Pack, axis, t0)
	e.Rec.AddComm(axis, e.BytesPerExchange(axis), msgs)
}

// WaitUnpackAxis completes one axis's posted receives and fills the
// corresponding ghosts.
func (e *CartExchanger) WaitUnpackAxis(r *comm.Rank, f *grid.Field, axis int) {
	for s := 0; s < 2; s++ {
		if e.Neighbors[axis][s] != NoNeighbor && e.reqs[axis][s] == nil {
			panic("halo: WaitUnpackAxis without PostRecvsAxis")
		}
	}
	t0 := e.Rec.Begin()
	if e.reqs[axis][0] != nil && e.reqs[axis][1] != nil {
		r.Wait(e.reqs[axis][0], e.reqs[axis][1])
	} else if e.reqs[axis][0] != nil {
		r.Wait(e.reqs[axis][0])
	} else if e.reqs[axis][1] != nil {
		r.Wait(e.reqs[axis][1])
	}
	e.Rec.EndAxis(obs.Wire, axis, t0)
	t0 = e.Rec.Begin()
	if e.reqs[axis][0] != nil {
		e.unpackFace(f, axis, 0, e.recv[axis][0])
	}
	if e.reqs[axis][1] != nil {
		e.unpackFace(f, axis, 3, e.recv[axis][1])
	}
	e.Rec.EndAxis(obs.Unpack, axis, t0)
	e.reqs[axis][0], e.reqs[axis][1] = nil, nil
}

// exchangeLocalAxis wraps one undecomposed axis periodically in place:
// low ghost <- high border, high ghost <- low border, written straight
// from the borders with no staging buffer.
func (e *CartExchanger) exchangeLocalAxis(f *grid.Field, axis int) {
	t0 := e.Rec.Begin()
	wrapAxis(f, axis, e.Own[axis], e.W[axis])
	e.Rec.EndAxis(obs.Pack, axis, t0)
}

func (e *CartExchanger) packFace(f *grid.Field, axis, region int, buf []float64) int {
	lo, hi := e.face(axis, region)
	return PackBox(f, lo, hi, buf)
}

func (e *CartExchanger) unpackFace(f *grid.Field, axis, region int, buf []float64) int {
	lo, hi := e.face(axis, region)
	return UnpackBox(f, lo, hi, buf)
}
