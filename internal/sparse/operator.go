package sparse

// Operator is the abstract banded linear operator the problems layer
// iterates: everything the solvers call on a test matrix, extracted from
// DIA so the storage strategy is swappable. Two implementations exist:
//
//   - DIA materializes every band's in-range entries (NNZ floats: n−|o|
//     for the band at offset o) and runs the vector or portable band
//     primitives of band.go (measured in KERNELS.md);
//   - Stencil stores nothing but the band offsets and recomputes entries
//     from (seed, band, row) on the fly — O(bands) matrix memory, which
//     is what makes paper-scale systems (Table 1's n=2,000,000, or
//     n=100M) feasible without a third of a gigabyte of bands per
//     system.
//
// Implementations are immutable after construction and safe for
// concurrent readers; all kernels write only into caller-owned
// destination/scratch slices.
type Operator interface {
	// Dim returns the matrix dimension n.
	Dim() int
	// BandOffsets returns the stored diagonal offsets; index 0 is always
	// the main diagonal (offset 0). Read-only.
	BandOffsets() []int
	// NNZ returns the number of stored (in-range) non-zero positions.
	NNZ() int
	// DiagAt returns the main-diagonal entry a_ii.
	DiagAt(i int) float64
	// MulVec computes dst = A·x.
	MulVec(dst, x []float64)
	// RowRangeMulVec computes dst[i-lo] = (A·x)_i for i in [lo,hi).
	RowRangeMulVec(lo, hi int, dst, x []float64)
	// GradientStep performs one fixed-step gradient update (Equ. 4) on
	// rows [lo,hi) of x, returning the max-norm change and the modeled
	// flop count. scratch needs at least hi-lo capacity.
	GradientStep(lo, hi int, gamma float64, x, b, scratch []float64) (residual, flops float64)
	// ColumnsTouched returns the merged column intervals rows [lo,hi)
	// read (§4.3 dependency lists).
	ColumnsTouched(lo, hi int) []Segment
	// Fingerprint is a deterministic content checksum: a full scan of the
	// stored entries for materialized operators, a parameter hash for
	// implicit ones. The problem cache uses it to detect in-place
	// mutation of shared systems.
	Fingerprint() uint64
	// StoredFloats reports how many float64s the operator materializes —
	// the cache's verify-on-retrieval policy and the memory-math in the
	// README are driven by it. DIA stores exactly its NNZ; implicit
	// operators return 0.
	StoredFloats() int
}

var (
	_ Operator = (*DIA)(nil)
	_ Operator = (*Stencil)(nil)
)

// Dim implements Operator.
func (a *DIA) Dim() int { return a.N }

// BandOffsets implements Operator.
func (a *DIA) BandOffsets() []int { return a.Offsets }

// DiagAt implements Operator.
func (a *DIA) DiagAt(i int) float64 { return a.Diags[0][i] }

// StoredFloats implements Operator: the length of every band, n−|o| for
// the band at offset o.
func (a *DIA) StoredFloats() int {
	n := 0
	for _, d := range a.Diags {
		n += len(d)
	}
	return n
}

// columnsTouched is the shared ColumnsTouched implementation: the merged
// column intervals that rows [lo,hi) of a banded operator with the given
// offsets read, clipped to [0,n).
func columnsTouched(n int, offsets []int, lo, hi int) []Segment {
	var segs []Segment
	for _, o := range offsets {
		clo, chi := lo+o, hi+o
		if clo < 0 {
			clo = 0
		}
		if chi > n {
			chi = n
		}
		if clo < chi {
			segs = append(segs, Segment{clo, chi})
		}
	}
	return MergeSegments(segs)
}

// bandNNZ is the shared NNZ implementation.
func bandNNZ(n int, offsets []int) int {
	nnz := 0
	for _, o := range offsets {
		if l := n - abs(o); l > 0 {
			nnz += l
		}
	}
	return nnz
}
