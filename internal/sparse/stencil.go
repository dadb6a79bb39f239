package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// maxStencilBands bounds the band count of an implicit operator (main
// diagonal included): each row's entry products are staged in a
// fixed-size stack buffer so the kernels allocate nothing, and the band
// index is packed into the top byte of the hash input. The paper's
// largest system uses 31 bands.
const maxStencilBands = 63

// Stencil is the implicit counterpart of DIA: the same banded,
// strictly-diagonally-dominant test matrix family, but no entry is ever
// stored. Off-diagonal entries are recomputed on demand from
// (seed, band, row) with a splitmix64-style hash — values in ±[0.5, 1.5)
// with DIA's alternating-sign convention — and the main diagonal is the
// row sum of off-diagonal magnitudes divided by rho, exactly
// NewSystem's dominance construction. Matrix memory is O(bands): at
// n=100,000,000 with 30 sub-diagonals a DIA materializes 24.8 GB of
// bands, a Stencil stores 31 ints.
//
// The cost is compute: every kernel evaluation re-hashes each touched
// entry, so a Stencil iteration is a few times slower per row than
// DIA's measured kernels. That trade only pays when assembly no longer
// fits — see README "Numeric kernels".
//
// A Stencil is immutable and safe for concurrent readers. Its
// materialization (Materialize) produces a DIA with bit-identical
// entries, and the property tests in stencil_test.go hold every kernel
// to bit-identity against that materialized matrix.
type Stencil struct {
	n        int
	offsets  []int // offsets[0] == 0, like DIA
	rho      float64
	seed     int64
	hashSeed uint64
}

// NewStencil builds the implicit operator for the same parameter space
// as NewSystem: n×n, numDiags off-diagonals spread over the full width
// (same deterministic spreadOffsets draw per seed), dominance ratio rho.
func NewStencil(n, numDiags int, rho float64, seed int64) *Stencil {
	if n < 2 || numDiags < 1 || numDiags >= n {
		panic(fmt.Sprintf("sparse: bad system shape n=%d numDiags=%d", n, numDiags))
	}
	if numDiags >= maxStencilBands {
		panic(fmt.Sprintf("sparse: stencil supports at most %d off-diagonals, got %d", maxStencilBands-1, numDiags))
	}
	if rho <= 0 || rho >= 1 {
		panic("sparse: dominance ratio must be in (0,1)")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Stencil{
		n:       n,
		offsets: append([]int{0}, spreadOffsets(n, numDiags, rng)...),
		rho:     rho,
		seed:    seed,
		// Finalize the seed once so per-entry hashing is a single mix.
		hashSeed: splitmix64(uint64(seed) ^ 0x6a09e667f3bcc909),
	}
	return s
}

// NewStencilSystem mirrors NewSystem for the implicit operator: it
// returns the operator, the right-hand side b = A·x* for the known
// solution x*_i = 1 + i mod 3, and x* itself. Only the two vectors are
// materialized — 2n floats, regardless of band count.
func NewStencilSystem(n, numDiags int, rho float64, seed int64) (*Stencil, []float64, []float64) {
	s := NewStencil(n, numDiags, rho, seed)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(1 + i%3)
	}
	b := make([]float64, n)
	s.MulVec(b, xTrue)
	return s, b, xTrue
}

// splitmix64 is the standard splitmix64 finalizer.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4B9FE
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// val returns the off-diagonal entry for band k (1-based index into
// offsets) at row i: magnitude in [0.5, 1.5) from the hash, sign
// alternating with the band index exactly like NewSystem's draw.
//
//lint:hotpath
func (s *Stencil) val(k, i int) float64 {
	z := splitmix64(s.hashSeed ^ uint64(k)<<56 ^ uint64(i)*0x9E3779B97F4A7C15)
	u := 0.5 + float64(z>>11)/(1<<53)
	if k%2 == 0 {
		return -u
	}
	return u
}

// Dim implements Operator.
func (s *Stencil) Dim() int { return s.n }

// BandOffsets implements Operator.
func (s *Stencil) BandOffsets() []int { return s.offsets }

// NNZ implements Operator.
func (s *Stencil) NNZ() int { return bandNNZ(s.n, s.offsets) }

// ColumnsTouched implements Operator.
func (s *Stencil) ColumnsTouched(lo, hi int) []Segment {
	return columnsTouched(s.n, s.offsets, lo, hi)
}

// StoredFloats implements Operator: an implicit operator stores no
// matrix entries at all.
func (s *Stencil) StoredFloats() int { return 0 }

// Fingerprint implements Operator. A Stencil has no stored entries to
// scan; its content is fully determined by its parameters, so the
// fingerprint hashes those.
func (s *Stencil) Fingerprint() uint64 {
	sum := fpInit
	sum = fpMix(sum, uint64(s.n))
	sum = fpMix(sum, uint64(s.seed))
	sum = fpMix(sum, math.Float64bits(s.rho))
	for _, o := range s.offsets {
		sum = fpMix(sum, uint64(int64(o)))
	}
	return sum
}

// DiagAt implements Operator: the dominance diagonal, recomputed from
// the row's off-diagonal magnitudes. Ascending-band accumulation order
// matches Materialize, so the value is bit-identical to the
// materialized matrix's.
func (s *Stencil) DiagAt(i int) float64 {
	var rowSum float64
	for k := 1; k < len(s.offsets); k++ {
		if j := i + s.offsets[k]; j >= 0 && j < s.n {
			rowSum += math.Abs(s.val(k, i))
		}
	}
	if rowSum == 0 {
		rowSum = 1
	}
	return rowSum / s.rho
}

// MulVec implements Operator.
//
//lint:hotpath
func (s *Stencil) MulVec(dst, x []float64) {
	if len(dst) != s.n || len(x) != s.n {
		panic("sparse: dimension mismatch in MulVec")
	}
	s.RowRangeMulVec(0, s.n, dst, x)
}

// rowAccum computes one row's accumulated (A·x)_i and its diagonal in
// the reference order: the diagonal term first, then off-diagonal
// contributions in ascending band order. Entry products are staged in
// pbuf because the diagonal — which must be added first — is only known
// once every off-diagonal magnitude has been summed. Each entry is
// hashed exactly once per row.
//
//lint:hotpath
func (s *Stencil) rowAccum(i int, x []float64, pbuf *[maxStencilBands]float64) (acc, diag float64) {
	var rowSum float64
	np := 0
	for k := 1; k < len(s.offsets); k++ {
		if j := i + s.offsets[k]; j >= 0 && j < s.n {
			e := s.val(k, i)
			rowSum += math.Abs(e)
			pbuf[np] = e * x[j]
			np++
		}
	}
	if rowSum == 0 {
		rowSum = 1
	}
	diag = rowSum / s.rho
	acc = diag * x[i]
	for t := 0; t < np; t++ {
		acc += pbuf[t]
	}
	return acc, diag
}

// RowRangeMulVec implements Operator. Row-wise: each row hashes its
// band entries once and accumulates in the reference order, so the
// result is bit-identical to Materialize().RowRangeMulVec.
//
//lint:hotpath
func (s *Stencil) RowRangeMulVec(lo, hi int, dst, x []float64) {
	if lo < 0 || hi > s.n || lo > hi {
		panic("sparse: bad row range")
	}
	if len(dst) < hi-lo || len(x) != s.n {
		panic("sparse: dimension mismatch in RowRangeMulVec")
	}
	var pbuf [maxStencilBands]float64
	for i := lo; i < hi; i++ {
		acc, _ := s.rowAccum(i, x, &pbuf)
		dst[i-lo] = acc
	}
}

// GradientStep implements Operator: the fused row-wise relaxation. The
// matvec, the diagonal, the update and the residual are all produced in
// one traversal; new values are deferred into scratch (any later row
// may read x inside [lo,hi)) and published with one copy. The update
// expression and flop model are identical to DIA.GradientStep, and the
// result is bit-identical to running it on the materialized matrix.
//
//lint:hotpath
func (s *Stencil) GradientStep(lo, hi int, gamma float64, x, b, scratch []float64) (residual, flops float64) {
	nv := scratch[:hi-lo]
	var maxd float64
	var pbuf [maxStencilBands]float64
	for i := lo; i < hi; i++ {
		acc, diag := s.rowAccum(i, x, &pbuf)
		v := x[i] + gamma*(b[i]-acc)/diag
		if d := math.Abs(v - x[i]); d > maxd {
			maxd = d
		}
		nv[i-lo] = v
	}
	copy(x[lo:hi], nv)
	rows := float64(hi - lo)
	return maxd, 2*float64(len(s.offsets))*rows + 5*rows
}

// Materialize assembles the stencil into a DIA with bit-identical
// entries: same offsets, same hashed off-diagonal values, same
// dominance diagonal (accumulated in the same ascending-band order).
// For tests and for sizes where materialized kernels are worth the
// memory.
func (s *Stencil) Materialize() *DIA {
	a := &DIA{N: s.n, Offsets: append([]int(nil), s.offsets...)}
	a.Diags = make([][]float64, len(a.Offsets))
	for k, o := range a.Offsets {
		a.Diags[k] = make([]float64, bandLen(s.n, o))
	}
	for k := 1; k < len(a.Offsets); k++ {
		blo, _ := bandRows(s.n, a.Offsets[k])
		for j := range a.Diags[k] {
			a.Diags[k][j] = s.val(k, blo+j)
		}
	}
	for i := 0; i < s.n; i++ {
		var rowSum float64
		for k := 1; k < len(a.Offsets); k++ {
			if blo, bhi := bandRows(s.n, a.Offsets[k]); i >= blo && i < bhi {
				rowSum += math.Abs(a.Diags[k][i-blo])
			}
		}
		if rowSum == 0 {
			rowSum = 1
		}
		a.Diags[0][i] = rowSum / s.rho
	}
	return a
}
