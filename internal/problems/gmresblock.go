package problems

import (
	"fmt"
	"math"

	"aiac/internal/aiac"
	"aiac/internal/gmres"
	"aiac/internal/sparse"
)

// LinearGMRES is the sparse linear system A·x = b iterated by block
// multisplitting with an inner Krylov solver: each rank's Update solves its
// own diagonal block A_bb·x_b = b_b − A_bo·x_o (ghost values frozen at
// their last received state) approximately with restarted GMRES, instead of
// taking one preconditioned gradient step. It is the "heavier local solver"
// end of the multisplitting spectrum of §4.2 — far fewer, far costlier
// outer iterations than Linear over the same test matrices — and it
// stresses the protocol differently: local convergence arrives in a few
// big steps, so the persistence/freshness gates do proportionally more of
// the work.
type LinearGMRES struct {
	A     *sparse.DIA
	B     []float64
	XTrue []float64 // known solution, for verification (not used in solving)
	// Gmres tunes the inner block solves. The default tolerance is near
	// machine precision on purpose: a loose inner solve makes the block
	// change — the outer convergence residual — read zero as soon as the
	// block residual drops below the inner tolerance, declaring
	// convergence at a point that can be far from the solution. Exact
	// block solves make the fixed point of the outer iteration the true
	// solution.
	Gmres gmres.Params

	scratch []*gmresScratch // per-rank inner-solve state
}

// gmresScratch is one rank's reusable inner-solve storage.
type gmresScratch struct {
	masked []float64 // full-length copy of x with the own block zeroed
	embed  []float64 // full-length operator input, zero outside the block
	rhs    []float64 // block-length right-hand side
	u      []float64 // block-length inner iterate
	ws     gmres.Workspace
}

// NewLinearGMRES generates the same test system as NewLinear (size, band
// count, dominance ratio, seed) iterated by block-GMRES multisplitting.
func NewLinearGMRES(n, numDiags int, rho float64, seed int64) *LinearGMRES {
	return (*Cache)(nil).LinearGMRES(n, numDiags, rho, seed)
}

// defaultGMRESBlockParams tunes the inner block solves (see the Gmres
// field's comment for why the tolerance sits near machine precision).
var defaultGMRESBlockParams = gmres.Params{Tol: 1e-12, Restart: 30, MaxIters: 2000}

// Name implements aiac.Problem.
func (l *LinearGMRES) Name() string { return fmt.Sprintf("linear-gmres-n%d", l.A.Dim()) }

// Size implements aiac.Problem.
func (l *LinearGMRES) Size() int { return l.A.Dim() }

// PartitionBounds implements aiac.Problem.
func (l *LinearGMRES) PartitionBounds(nranks int) []int {
	l.scratch = make([]*gmresScratch, nranks)
	return sparse.Partition(l.A.Dim(), nranks)
}

// InitialVector implements aiac.Problem: x⁰ = 0.
func (l *LinearGMRES) InitialVector() []float64 { return make([]float64, l.A.Dim()) }

// DepsFor implements aiac.Problem: the columns the rank's rows touch,
// minus its own block — identical to Linear, the dependency pattern is the
// matrix's, not the local solver's.
func (l *LinearGMRES) DepsFor(rank int, bounds []int) []aiac.Segment {
	return blockDeps(l.A, rank, bounds)
}

// Update implements aiac.Problem: one inner GMRES solve of the rank's
// diagonal block against the current ghost values. The residual is the
// max-norm change of the block (Equ. 6). A stagnated inner solve leaves the
// block as it was and reports the largest finite residual, so the processor
// keeps iterating rather than declaring convergence on a half-solved block;
// one that stagnated on non-finite data reports NaN, which ends the solve
// (aiac.StopNonFinite), as strip Newton does (newtonResidual).
func (l *LinearGMRES) Update(rank int, bounds []int, x []float64) (residual, flops float64) {
	lo, hi := bounds[rank], bounds[rank+1]
	m := hi - lo
	sc := l.scratch[rank]
	if sc == nil {
		sc = &gmresScratch{
			masked: make([]float64, l.A.Dim()),
			embed:  make([]float64, l.A.Dim()),
			rhs:    make([]float64, m),
			u:      make([]float64, m),
		}
		l.scratch[rank] = sc
	}
	// rhs = b_b − A_bo·x_o: mask the own block out of a copy of x so the
	// row-range product sees only the frozen coupling terms.
	copy(sc.masked, x)
	for i := lo; i < hi; i++ {
		sc.masked[i] = 0
	}
	l.A.RowRangeMulVec(lo, hi, sc.rhs, sc.masked)
	for i := 0; i < m; i++ {
		sc.rhs[i] = l.B[lo+i] - sc.rhs[i]
	}
	opFlops := 2 * float64(l.A.NNZ()) / float64(l.A.Dim()) * float64(m)
	flops = opFlops + 2*float64(m)

	// Solve A_bb·u = rhs from the current block iterate. embed stays zero
	// outside the block, so the row-range product is exactly A_bb·v.
	copy(sc.u, x[lo:hi])
	apply := func(dst, v []float64) {
		copy(sc.embed[lo:hi], v)
		l.A.RowRangeMulVec(lo, hi, dst, sc.embed)
	}
	res, err := gmres.SolveWith(&sc.ws, apply, sc.rhs, sc.u, l.Gmres, opFlops)
	flops += res.Flops
	if err != nil {
		if math.IsNaN(res.Residual) {
			return math.NaN(), flops
		}
		return math.MaxFloat64, flops
	}
	var maxd float64
	for i := 0; i < m; i++ {
		if d := math.Abs(sc.u[i] - x[lo+i]); d > maxd {
			maxd = d
		}
		x[lo+i] = sc.u[i]
	}
	flops += 2 * float64(m)
	return maxd, flops
}

var _ aiac.Problem = (*LinearGMRES)(nil)
