package sparse

// Operator is the banded linear operator the problems layer iterates:
// everything the solvers call on a test matrix. DIA, which materializes
// every band's in-range entries (NNZ floats: n−|o| for the band at
// offset o), is its only implementation.
//
// Operator accepts only a DIA; it stays as the type of problems.Linear.A
// while benchmark/ type-asserts that field, and goes in ROADMAP item 4(b).
type Operator interface {
	// Dim returns the matrix dimension n.
	Dim() int
	// BandOffsets returns the stored diagonal offsets; index 0 is always
	// the main diagonal (offset 0). Read-only.
	BandOffsets() []int
	// RowRangeMulVec computes dst[i-lo] = (A·x)_i for i in [lo,hi).
	RowRangeMulVec(lo, hi int, dst, x []float64)
	// GradientStep performs one fixed-step gradient update (Equ. 4) on
	// rows [lo,hi) of x, returning the max-norm change and the modeled
	// flop count. scratch needs at least hi-lo capacity.
	GradientStep(lo, hi int, gamma float64, x, b, scratch []float64) (residual, flops float64)
	// GradientStepShifted is GradientStep on a compact iterate whose
	// band k reads column c at x[c−shift[k]].
	GradientStepShifted(lo, hi int, gamma float64, x []float64, shift []int, b, scratch []float64) (residual, flops float64)
	// WindowShifts returns the per-band shifts of rows [lo,hi) stepped on
	// the compact copy of x that lays window's segments end to end.
	WindowShifts(lo, hi int, window []Segment) []int
	// ColumnsTouched returns the merged column intervals rows [lo,hi)
	// read (§4.3 dependency lists).
	ColumnsTouched(lo, hi int) []Segment
	// Fingerprint is a deterministic content checksum, a full scan of the
	// stored entries. The problem cache uses it to detect in-place
	// mutation of shared systems.
	Fingerprint() uint64
	// StoredFloats reports how many float64s the operator materializes —
	// the cache's verify-on-retrieval policy and the memory-math in the
	// README are driven by it. DIA stores exactly its NNZ.
	StoredFloats() int
}

var _ Operator = (*DIA)(nil)

// Dim implements Operator.
func (a *DIA) Dim() int { return a.N }

// BandOffsets implements Operator.
func (a *DIA) BandOffsets() []int { return a.Offsets }

// StoredFloats implements Operator: the length of every band, n−|o| for
// the band at offset o.
func (a *DIA) StoredFloats() int {
	n := 0
	for _, d := range a.Diags {
		n += len(d)
	}
	return n
}
