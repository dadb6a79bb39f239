package sparse

// Hooks for this directory's external tests (package sparse_test), which
// may import internal/sparse/kernels where this package's own may not.

// OnPath runs f on the start-up path's primitives (vector) or on the
// portable ones, and then restores the path in force before.
func OnPath(vector bool, f func()) {
	saved := kern
	defer func() { kern = saved }()
	kern = portable
	if vector {
		kern = startup
	}
	f()
}

// Fill is fill, Same is same and Specials is specials.
var (
	Fill     = fill
	Same     = same
	Specials = specials
)
