package lint

import "testing"

// A linker symbol folds into the name of the declaration it came from.
func TestFoldSymbol(t *testing.T) {
	for sym, want := range map[string]string{
		"fix/lib.Used":                           "fix/lib.Used",
		"fix/lib.(*FIFO[go.shape.*uint8]).Len":   "fix/lib.FIFO.Len",
		"fix/lib.(*Val).M":                       "fix/lib.Val.M", // a value method's pointer wrapper
		"fix/lib.Map[go.shape.int,go.shape.[]T]": "fix/lib.Map",
		"fix/lib.Val.M":                          "fix/lib.Val.M",
	} {
		if got := foldSymbol(sym); got != want {
			t.Errorf("foldSymbol(%q) = %q, want %q", sym, got, want)
		}
	}
}
