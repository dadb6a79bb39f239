package sparse

// Implemented in band_amd64.s.

func hasAVX2() bool

//go:noescape
func mulAVX2(out, d, x []float64)

//go:noescape
func mulAddAVX2(acc, d, x []float64)

//go:noescape
func relaxAVX2(dst, xs, bs, ax, ds []float64, gamma, maxd float64) float64

func init() {
	if hasAVX2() {
		kern = bandKernels{path: "avx2", mul: mulAVX2, mulAdd: mulAddAVX2, relax: relaxAVX2}
	}
}
