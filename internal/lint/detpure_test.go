package lint_test

import (
	"testing"

	"aiac/internal/lint"
	"aiac/internal/lint/linttest"
)

// The same analyzer configuration serves both detpure fixtures: the
// positive fixture loads under a covered path and the offpath fixture under
// an uncovered one.
func detpureForFixtures() *lint.Analyzer {
	return lint.Detpure(lint.DetpureConfig{Paths: []string{"fix/vtime"}})
}

func TestDetpureFlagsVirtualTimeViolations(t *testing.T) {
	linttest.Run(t, "testdata/src/detpure", "fix/vtime/engine", detpureForFixtures())
}

func TestDetpureIgnoresOffPathPackages(t *testing.T) {
	// Identical impurities, uncovered path: zero findings expected (the
	// fixture has no want comments, so any diagnostic fails the test).
	linttest.Run(t, "testdata/src/detpure_offpath", "fix/other/backend", detpureForFixtures())
}
