package sparse

import "math"

// The dense-form oracles of this package's tests: definitions read
// entry by entry, against which the kernels and the assembly are checked.

// NNZ returns the number of stored non-zero positions.
func (a *DIA) NNZ() int { return bandNNZ(a.N, a.Offsets) }

// bandNNZ is the number of in-range positions of bands at the given
// offsets of an n×n matrix.
func bandNNZ(n int, offsets []int) int {
	nnz := 0
	for _, o := range offsets {
		nnz += bandLen(n, o)
	}
	return nnz
}

// checkLayout panics unless every band has the length it covers.
func (a *DIA) checkLayout() {
	for k, o := range a.Offsets {
		if len(a.Diags[k]) != bandLen(a.N, o) {
			a.badBand(k)
		}
	}
}

// JacobiSpectralBound returns max_i sum_{j!=i} |a_ij| / |a_ii|, an upper
// bound on the spectral radius of the Jacobi iteration matrix.
func (a *DIA) JacobiSpectralBound() float64 {
	a.checkLayout()
	var worst float64
	for i := 0; i < a.N; i++ {
		var off float64
		for k := 1; k < len(a.Offsets); k++ {
			if blo, bhi := bandRows(a.N, a.Offsets[k]); i >= blo && i < bhi {
				off += math.Abs(a.Diags[k][i-blo])
			}
		}
		if r := off / math.Abs(a.Diags[0][i]); r > worst {
			worst = r
		}
	}
	return worst
}

// Dense returns the dense form of the matrix. For tests on tiny systems.
func (a *DIA) Dense() [][]float64 {
	a.checkLayout()
	m := make([][]float64, a.N)
	for i := range m {
		m[i] = make([]float64, a.N)
	}
	for k, o := range a.Offsets {
		blo, _ := bandRows(a.N, o)
		for j, v := range a.Diags[k] {
			m[blo+j][blo+j+o] = v
		}
	}
	return m
}
