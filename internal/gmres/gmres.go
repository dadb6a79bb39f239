// Package gmres implements the restarted GMRES(m) iterative solver of Saad
// (the paper's reference [18]), used as the sequential linear solver inside
// each Newton step of the multisplitting method (§4.2).
//
// The solver is matrix-free: it only needs the operator y = A·x, so the
// chemical problem can apply its Jacobian via stencils without assembling a
// matrix.
package gmres

import (
	"errors"
	"math"

	"aiac/internal/la"
)

// Operator applies dst = A·x. It must not retain the slices.
type Operator func(dst, x []float64)

// Params configures a solve.
type Params struct {
	// Restart is the Krylov subspace dimension m (default 30).
	Restart int
	// Tol is the relative residual target ||r||/||b|| (default 1e-8).
	Tol float64
	// MaxIters caps the total iterations across restarts (default 10*n).
	MaxIters int
}

func (p Params) withDefaults(n int) Params {
	if p.Restart <= 0 {
		p.Restart = 30
	}
	if p.Tol <= 0 {
		p.Tol = 1e-8
	}
	if p.MaxIters <= 0 {
		p.MaxIters = 10 * n
	}
	return p
}

// Result reports the outcome of a solve.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual
	Flops      float64
	Converged  bool
}

// ErrStagnated is returned when the iteration cap is reached before the
// tolerance. The best iterate so far is still written to x.
var ErrStagnated = errors.New("gmres: iteration cap reached before convergence")

// Workspace holds the Krylov basis and Hessenberg storage of a solve so a
// caller performing many solves of the same shape (every outer iteration
// of the block-multisplitting problems) can reuse it and keep the inner
// solver allocation-free. The zero value is ready: SolveWith sizes it on
// first use and resizes it whenever n or the restart dimension grows.
type Workspace struct {
	v  [][]float64 // m+1 Krylov basis vectors of length n
	h  [][]float64 // (m+1)×m Hessenberg columns
	cs []float64   // Givens cosines
	sn []float64   // Givens sines
	g  []float64   // rotated residual norms
	y  []float64   // triangular-solve solution
	w  []float64   // operator output / orthogonalization scratch
}

// ensure sizes the workspace for an n-dimensional solve with restart m.
func (ws *Workspace) ensure(n, m int) {
	if len(ws.v) < m+1 || len(ws.w) < n {
		ws.v = make([][]float64, m+1)
		for i := range ws.v {
			ws.v[i] = make([]float64, n)
		}
		ws.h = make([][]float64, m+1)
		for i := range ws.h {
			ws.h[i] = make([]float64, m)
		}
		ws.cs = make([]float64, m)
		ws.sn = make([]float64, m)
		ws.g = make([]float64, m+1)
		ws.y = make([]float64, m)
		ws.w = make([]float64, n)
	}
}

// SolveWith finds x such that A·x ≈ b, starting from the initial guess in
// x and overwriting it with the solution. opFlops is the flop cost the
// caller attributes to one operator application (added to the returned
// count per iteration). ws holds all temporary storage: after the first
// call of a given shape, subsequent calls allocate nothing.
//
//lint:hotpath
func SolveWith(ws *Workspace, apply Operator, b, x []float64, p Params, opFlops float64) (Result, error) {
	n := len(b)
	if len(x) != n {
		panic("gmres: dimension mismatch")
	}
	p = p.withDefaults(n)
	var res Result
	bnorm := la.Norm2(b)
	res.Flops += 2 * float64(n)
	if bnorm == 0 {
		// Solution of A·x = 0 with a nonsingular A is x = 0.
		la.Fill(x, 0)
		res.Converged = true
		return res, nil
	}

	m := p.Restart
	ws.ensure(n, m)
	// Krylov basis and Hessenberg storage, reused across restarts. The
	// workspace may be larger than this solve needs (a shared workspace
	// serves the largest shape seen); every loop below is bounded by n and
	// m, not the storage lengths, so excess capacity is inert.
	v := ws.v
	h := ws.h
	cs := ws.cs
	sn := ws.sn
	g := ws.g[:m+1]
	y := ws.y
	w := ws.w[:n]
	for i := range v {
		v[i] = v[i][:n] // n ≤ cap: ensure allocated for the largest n seen
	}

	for res.Iterations < p.MaxIters {
		// r0 = b - A*x
		apply(w, x)
		res.Flops += opFlops
		for i := range w {
			w[i] = b[i] - w[i]
		}
		res.Flops += float64(n)
		beta := la.Norm2(w)
		res.Flops += 2 * float64(n)
		res.Residual = beta / bnorm
		if res.Residual <= p.Tol {
			res.Converged = true
			return res, nil
		}
		copy(v[0], w)
		la.Scale(1/beta, v[0])
		res.Flops += float64(n)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && res.Iterations < p.MaxIters; k++ {
			res.Iterations++
			// Arnoldi: w = A*v_k, modified Gram-Schmidt against v_0..v_k.
			apply(w, v[k])
			res.Flops += opFlops
			for i := 0; i <= k; i++ {
				h[i][k] = la.Dot(w, v[i])
				la.Axpy(-h[i][k], v[i], w)
				res.Flops += 4 * float64(n)
			}
			h[k+1][k] = la.Norm2(w)
			res.Flops += 2 * float64(n)
			if h[k+1][k] > 1e-300 {
				copy(v[k+1], w)
				la.Scale(1/h[k+1][k], v[k+1])
				res.Flops += float64(n)
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			res.Flops += 6 * float64(k)
			// New rotation to annihilate h[k+1][k].
			cs[k], sn[k] = la.Givens(h[k][k], h[k+1][k])
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			res.Flops += 12
			res.Residual = math.Abs(g[k+1]) / bnorm
			if res.Residual <= p.Tol {
				k++
				break
			}
		}
		// Back-substitute y from the k×k triangular system and update x.
		for i := k - 1; i >= 0; i-- {
			y[i] = g[i]
			for j := i + 1; j < k; j++ {
				y[i] -= h[i][j] * y[j]
			}
			y[i] /= h[i][i]
		}
		res.Flops += float64(k * k)
		for i := 0; i < k; i++ {
			la.Axpy(y[i], v[i], x)
		}
		res.Flops += 2 * float64(k) * float64(n)
		if res.Residual <= p.Tol {
			res.Converged = true
			return res, nil
		}
	}
	return res, ErrStagnated
}
