package problems

import (
	"fmt"
	"math"
	"math/rand"

	"aiac/internal/aiac"
	"aiac/internal/gmres"
	"aiac/internal/newton"
	"aiac/internal/sparse"
)

// Reaction is a standalone non-linear test problem for the multisplitting
// Newton machinery (internal/newton) outside the chemical application: a
// one-dimensional diffusion-reaction system
//
//	G(y)_i = a·(2y_i − y_{i−1} − y_{i+1}) + c·sinh(y_i) − f_i = 0
//
// with homogeneous Dirichlet ends, whose forcing f is manufactured from a
// known smooth solution y* so every run can be verified against the exact
// answer. The iterate is y, one Update is one strip-local Newton iteration
// (inner GMRES on the tridiagonal strip Jacobian), and the dependencies are
// the single ghost points adjacent to each strip — the cheapest possible
// neighbour-exchange workload, the opposite corner of the communication
// spectrum from the all-to-all sparse system.
//
// The Jacobian diagonal 2a + c·cosh(y) strictly dominates the off-diagonal
// mass 2a for c > 0, so both the inner GMRES and the outer multisplitting
// iteration converge from the zero initial guess.
type Reaction struct {
	N     int
	A     float64   // diffusion coefficient
	C     float64   // reaction strength
	F     []float64 // manufactured forcing, G₀(y*)
	XTrue []float64 // the manufactured solution y*
	Gmres gmres.Params

	solvers []*newton.StripSolver // per rank; the system itself is stateless
}

// NewReaction builds the problem with n unknowns and reaction strength c.
// The seed perturbs the manufactured solution (amplitudes and phases of its
// Fourier components), so repetitions solve genuinely distinct systems.
func NewReaction(n int, c float64, seed int64) *Reaction {
	return (*Cache)(nil).Reaction(n, c, seed)
}

// buildReaction generates the manufactured data of the problem — the
// assembly step a Cache shares across runs. The forcing and the solution
// are treated as immutable once returned.
func buildReaction(n int, c float64, seed int64) (f, xtrue []float64) {
	rng := rand.New(rand.NewSource(seed))
	f = make([]float64, n)
	xtrue = make([]float64, n)
	const a = 1.0 // diffusion coefficient, matching newReactionAround
	a1 := 0.8 + 0.4*rng.Float64()
	a2 := 0.2 + 0.2*rng.Float64()
	p1 := 2 * math.Pi * rng.Float64()
	p2 := 2 * math.Pi * rng.Float64()
	for i := 0; i < n; i++ {
		t := float64(i+1) / float64(n+1)
		// Vanishes at both ends, matching the Dirichlet boundary.
		xtrue[i] = math.Sin(math.Pi*t) * (a1*math.Sin(2*math.Pi*t+p1) + a2*math.Sin(6*math.Pi*t+p2))
	}
	for i := 0; i < n; i++ {
		f[i] = a*(2*xtrue[i]-dirichletAt(xtrue, i-1)-dirichletAt(xtrue, i+1)) + c*math.Sinh(xtrue[i])
	}
	return f, xtrue
}

// dirichletAt reads y_i under the homogeneous Dirichlet boundary — the
// single definition of the boundary treatment, used by both the forcing
// assembly and the operator evaluations so they can never diverge.
func dirichletAt(y []float64, i int) float64 {
	if i < 0 || i >= len(y) {
		return 0
	}
	return y[i]
}

// newReactionAround wraps (possibly shared) manufactured data in a fresh
// problem struct carrying the per-run mutable state.
func newReactionAround(n int, c float64, f, xtrue []float64) *Reaction {
	return &Reaction{
		N: n, A: 1, C: c,
		F:     f,
		XTrue: xtrue,
		Gmres: gmres.Params{Tol: 1e-6, Restart: 20, MaxIters: 200},
	}
}

// at reads y_i with the homogeneous Dirichlet boundary.
func (r *Reaction) at(y []float64, i int) float64 { return dirichletAt(y, i) }

// Name implements aiac.Problem.
func (r *Reaction) Name() string { return fmt.Sprintf("reaction-n%d", r.N) }

// Size implements aiac.Problem.
func (r *Reaction) Size() int { return r.N }

// PartitionBounds implements aiac.Problem: contiguous strips, one Newton
// strip solver per rank (each owns its scratch; the system is shared and
// stateless, so concurrent native ranks are safe).
func (r *Reaction) PartitionBounds(nranks int) []int {
	bounds := sparse.Partition(r.N, nranks)
	r.solvers = make([]*newton.StripSolver, nranks)
	for rank := 0; rank < nranks; rank++ {
		r.solvers[rank] = newton.NewStripSolver(r, bounds[rank], bounds[rank+1], r.Gmres)
	}
	return bounds
}

// InitialVector implements aiac.Problem: y⁰ = 0.
func (r *Reaction) InitialVector() []float64 { return make([]float64, r.N) }

// DepsFor implements aiac.Problem: the single ghost points directly left
// and right of the strip.
func (r *Reaction) DepsFor(rank int, bounds []int) []aiac.Segment {
	lo, hi := bounds[rank], bounds[rank+1]
	var deps []aiac.Segment
	if lo > 0 {
		deps = append(deps, aiac.Segment{Lo: lo - 1, Hi: lo})
	}
	if hi < r.N {
		deps = append(deps, aiac.Segment{Lo: hi, Hi: hi + 1})
	}
	return deps
}

// Update implements aiac.Problem: one strip Newton iteration
// (newtonResidual).
func (r *Reaction) Update(rank int, bounds []int, x []float64) (residual, flops float64) {
	res, fl, err := r.solvers[rank].Iterate(x)
	return newtonResidual(res, err), fl
}

// newtonResidual is the residual a strip Newton iteration reports. A
// failed inner solve — possible transiently with badly stale ghost data —
// reports the largest finite residual, so the processor keeps iterating
// rather than declaring convergence; one that failed on non-finite data
// reports NaN, which ends the solve (aiac.StopNonFinite).
func newtonResidual(res float64, err error) float64 {
	if err != nil && !math.IsNaN(res) {
		return math.MaxFloat64
	}
	return res
}

// --- newton.LocalSystem ---

// Dim implements newton.LocalSystem.
func (r *Reaction) Dim() int { return r.N }

// EvalG implements newton.LocalSystem.
func (r *Reaction) EvalG(dst, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = r.A*(2*y[i]-r.at(y, i-1)-r.at(y, i+1)) + r.C*math.Sinh(y[i]) - r.F[i]
	}
}

// ApplyJ implements newton.LocalSystem: the tridiagonal Jacobian with the
// reaction term linearised at y.
func (r *Reaction) ApplyJ(dst, v, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = r.A*(2*v[i]-r.at(v, i-1)-r.at(v, i+1)) + r.C*math.Cosh(y[i])*v[i]
	}
}

// GFlops implements newton.LocalSystem (sinh counted as ~10 flops).
func (r *Reaction) GFlops(lo, hi int) float64 { return 16 * float64(hi-lo) }

// JFlops implements newton.LocalSystem.
func (r *Reaction) JFlops(lo, hi int) float64 { return 18 * float64(hi-lo) }

var _ aiac.Problem = (*Reaction)(nil)
var _ newton.LocalSystem = (*Reaction)(nil)
