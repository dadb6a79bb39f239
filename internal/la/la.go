// Package la provides the small dense linear-algebra kernels shared by the
// solvers: vector arithmetic, norms, and Givens rotations for GMRES.
//
// Every kernel that does floating-point work documents its flop count; the
// simulation layers charge virtual CPU time from these counts.
package la

import "math"

// Dot returns the inner product of a and b. Flops: 2n.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: dimension mismatch in Dot")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x. Flops: 2n.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: dimension mismatch in Axpy")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place. Flops: n.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x. Flops: 2n.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxNormDiff returns max_i |a_i - b_i|, the residual norm of the paper's
// convergence test (Equ. 6), or NaN when any difference is NaN: a vector
// holding NaN is never close to another, whatever its other entries.
// Flops: 2n.
func MaxNormDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: dimension mismatch in MaxNormDiff")
	}
	var m float64
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > m {
			m = d
		} else if d != d {
			return d
		}
	}
	return m
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Givens computes the rotation (c, s) that zeroes b against a:
//
//	[ c  s ] [a]   [r]
//	[-s  c ] [b] = [0]
//
// using the numerically-stable formulation. Flops: ~6.
func Givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t
}
