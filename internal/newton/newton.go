// Package newton implements the Newton iterations of the paper's
// multisplitting method (§4.2): the unknown vector is decomposed into
// sub-sets (strips), each processor performs Newton iterations on its own
// strip with the coupling terms to other strips frozen at their last
// received values, and the inner linear systems are solved by sequential
// GMRES.
//
// The package is generic over a LocalSystem so it can be unit-tested on
// small nonlinear systems; internal/chem provides the adapter for the
// paper's chemical problem.
package newton

import (
	"fmt"
	"math"

	"aiac/internal/gmres"
)

// LocalSystem describes a nonlinear system G(y) = 0 whose residual and
// Jacobian can be evaluated on index sub-ranges.
type LocalSystem interface {
	// Dim returns the full state dimension.
	Dim() int
	// EvalG writes G(y)[i] into dst[i] for i in [lo,hi). It may read all
	// of y (coupling to frozen outside values).
	EvalG(dst, y []float64, lo, hi int)
	// ApplyJ writes (J_G(y)·v)[i] into dst[i] for i in [lo,hi). v is
	// defined on all indices but the multisplitting Jacobian treats
	// outside components as frozen, so callers pass v zero outside
	// [lo,hi).
	ApplyJ(dst, v, y []float64, lo, hi int)
	// GFlops and JFlops estimate the flop cost of one EvalG / ApplyJ
	// call over [lo,hi).
	GFlops(lo, hi int) float64
	JFlops(lo, hi int) float64
}

// StripSolver performs Newton iterations restricted to [Lo,Hi) of a
// LocalSystem. It owns its scratch storage, so one solver per processor can
// be reused across iterations and time steps without allocation.
type StripSolver struct {
	Sys    LocalSystem
	Lo, Hi int
	Gmres  gmres.Params

	g     []float64 // local residual, length Hi-Lo
	delta []float64 // local Newton step
	vfull []float64 // full-length embedding for ApplyJ
	jout  []float64 // full-length Jacobian output
	ws    gmres.Workspace
}

// NewStripSolver returns a solver for indices [lo,hi) of sys.
func NewStripSolver(sys LocalSystem, lo, hi int, gp gmres.Params) *StripSolver {
	if lo < 0 || hi > sys.Dim() || lo >= hi {
		panic(fmt.Sprintf("newton: bad strip [%d,%d) of dim %d", lo, hi, sys.Dim()))
	}
	n := hi - lo
	return &StripSolver{
		Sys: sys, Lo: lo, Hi: hi, Gmres: gp,
		g:     make([]float64, n),
		delta: make([]float64, n),
		vfull: make([]float64, sys.Dim()),
		jout:  make([]float64, sys.Dim()),
	}
}

// Iterate performs one Newton iteration on the strip: solve
// J(y)·δ = −G(y) restricted to [Lo,Hi), then y[Lo:Hi) += δ.
// It returns the scaled max-norm of δ (the local residual used for
// convergence detection, res = max |δ_i| / max(|y_i|, 1)) and the total
// flop count including the inner GMRES. When the inner solve fails, y is
// left as it was and the residual is the inner solve's final relative
// residual, NaN if the system carries non-finite values.
func (s *StripSolver) Iterate(y []float64) (residual, flops float64, err error) {
	if len(y) != s.Sys.Dim() {
		panic("newton: state dimension mismatch")
	}
	lo, hi := s.Lo, s.Hi
	n := hi - lo
	s.Sys.EvalG(s.jout, y, lo, hi)
	flops += s.Sys.GFlops(lo, hi)
	for i := 0; i < n; i++ {
		s.g[i] = -s.jout[lo+i]
		s.delta[i] = 0
	}
	flops += float64(n)

	op := func(dst, v []float64) {
		// Embed the strip vector into the full space with zeros
		// outside (frozen coupling), apply J, extract the strip.
		for i := 0; i < n; i++ {
			s.vfull[lo+i] = v[i]
		}
		s.Sys.ApplyJ(s.jout, s.vfull, y, lo, hi)
		copy(dst, s.jout[lo:hi])
		for i := 0; i < n; i++ {
			s.vfull[lo+i] = 0
		}
	}
	res, gerr := gmres.SolveWith(&s.ws, op, s.g, s.delta, s.Gmres, s.Sys.JFlops(lo, hi))
	flops += res.Flops
	if gerr != nil {
		return res.Residual, flops, fmt.Errorf("newton: inner solve on [%d,%d): %w", lo, hi, gerr)
	}
	var maxs float64
	for i := 0; i < n; i++ {
		y[lo+i] += s.delta[i]
		scale := math.Abs(y[lo+i])
		if scale < 1 {
			scale = 1
		}
		if r := math.Abs(s.delta[i]) / scale; r > maxs {
			maxs = r
		}
	}
	flops += 3 * float64(n)
	return maxs, flops, nil
}

// Solve runs full-domain Newton to convergence: the sequential reference
// used by tests and the synchronous baseline inside one processor.
func Solve(sys LocalSystem, y []float64, tol float64, maxIters int, gp gmres.Params) (iters int, flops float64, err error) {
	s := NewStripSolver(sys, 0, sys.Dim(), gp)
	for iters = 1; iters <= maxIters; iters++ {
		res, f, err := s.Iterate(y)
		flops += f
		if err != nil {
			return iters, flops, err
		}
		if res < tol {
			return iters, flops, nil
		}
	}
	return maxIters, flops, fmt.Errorf("newton: no convergence in %d iterations", maxIters)
}
