package geom

// PointStore is relation-wide columnar point storage: one structure-of-arrays
// (SoA) triple of flat slices, where point i is (Xs[i], Ys[i]) and IDs[i] is
// its stable identity. The distance-scan inner loops underneath every query
// read Xs/Ys directly — contiguous float64 streams the compiler can keep in
// registers and the CPU can prefetch — instead of loading Point structs
// through a per-block slice header (the former array-of-structs layout).
//
// IDs are assigned at ingestion (position in the original input, unless the
// producer supplies its own) and travel with the coordinates through every
// permutation, so a point keeps its identity no matter how an index reorders
// the store into block-contiguous spans. Index blocks reference a store by
// (offset, length) span and never copy points.
//
// A PointStore is append-only while being built and immutable once an index
// has been constructed over it.
type PointStore struct {
	// Xs and Ys hold the coordinates, parallel to each other and to IDs.
	Xs, Ys []float64

	// IDs holds the stable per-point identities, parallel to Xs/Ys.
	IDs []int32
}

// NewPointStore returns an empty store pre-sized for n points, so filling it
// with up to n Append calls never regrows the backing arrays.
func NewPointStore(n int) *PointStore {
	if n < 0 {
		n = 0
	}
	return &PointStore{
		Xs:  make([]float64, 0, n),
		Ys:  make([]float64, 0, n),
		IDs: make([]int32, 0, n),
	}
}

// StoreFromPoints builds a store holding pts in order, with IDs 0..len-1
// (the identity a caller-supplied point slice implies). The input slice is
// not retained.
func StoreFromPoints(pts []Point) *PointStore {
	st := NewPointStore(len(pts))
	for _, p := range pts {
		st.Append(p)
	}
	return st
}

// Len returns the number of stored points.
func (st *PointStore) Len() int { return len(st.Xs) }

// At returns point i as a Point value.
func (st *PointStore) At(i int) Point { return Point{X: st.Xs[i], Y: st.Ys[i]} }

// ID returns the stable identity of point i.
func (st *PointStore) ID(i int) int32 { return st.IDs[i] }

// Append adds p with the next sequential ID (its current position).
func (st *PointStore) Append(p Point) {
	st.AppendWithID(p, int32(len(st.Xs)))
}

// AppendWithID adds p carrying an explicit stable ID.
func (st *PointStore) AppendWithID(p Point, id int32) {
	st.Xs = append(st.Xs, p.X)
	st.Ys = append(st.Ys, p.Y)
	st.IDs = append(st.IDs, id)
}

// View returns a frozen view of the first n points: a store whose slice
// headers are capped at n, sharing the backing arrays. Appends to the
// original store after the view is taken — even ones that land in the same
// backing array — are invisible to the view and race-free with respect to
// it, because readers of the view never touch the original headers or any
// element at position >= n. This is what lets an append-only delta store
// publish immutable snapshots while mutation continues.
func (st *PointStore) View(n int) *PointStore {
	return &PointStore{
		Xs:  st.Xs[:n:n],
		Ys:  st.Ys[:n:n],
		IDs: st.IDs[:n:n],
	}
}

// Points materializes the store as a Point slice in storage order. It
// allocates; scan paths iterate Xs/Ys directly instead.
func (st *PointStore) Points() []Point {
	out := make([]Point, st.Len())
	for i := range out {
		out[i] = Point{X: st.Xs[i], Y: st.Ys[i]}
	}
	return out
}

// AppendRange appends the points of the span [off, off+n) to dst and
// returns it — the copy-out primitive for cold callers that want Point
// values out of a span.
func (st *PointStore) AppendRange(dst []Point, off, n int) []Point {
	xs, ys := st.Xs[off:off+n], st.Ys[off:off+n]
	for i := range xs {
		dst = append(dst, Point{X: xs[i], Y: ys[i]})
	}
	return dst
}

// MBR returns the minimum bounding rectangle of the span [off, off+n) as a
// flat scan over the coordinate arrays. It panics when n == 0; callers
// bound at least one point.
func (st *PointStore) MBR(off, n int) Rect {
	if n <= 0 {
		panic("geom: PointStore.MBR on empty span")
	}
	xs, ys := st.Xs[off:off+n], st.Ys[off:off+n]
	r := Rect{MinX: xs[0], MinY: ys[0], MaxX: xs[0], MaxY: ys[0]}
	for i := 1; i < len(xs); i++ {
		if xs[i] < r.MinX {
			r.MinX = xs[i]
		}
		if xs[i] > r.MaxX {
			r.MaxX = xs[i]
		}
		if ys[i] < r.MinY {
			r.MinY = ys[i]
		}
		if ys[i] > r.MaxY {
			r.MaxY = ys[i]
		}
	}
	return r
}

// FlatXYs copies pts into parallel X/Y columns — the structure-of-arrays
// form the batched distance kernels scan. Query algorithms flatten a
// retained point set (e.g. a select's σ-neighborhood) once and run their
// per-tuple scans through the kernel layer against the columns.
func FlatXYs(pts []Point) (xs, ys []float64) {
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys
}
