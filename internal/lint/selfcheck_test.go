package lint_test

import (
	"strings"
	"testing"

	"aiac/internal/lint"
)

// TestSuiteCleanOnRepo runs the analyzer suite over the repository itself
// and requires zero findings (the unlinked check, which builds every main
// package, runs in CI's aiaclint step instead). This is the regression gate: undoing
// any of the production fixes (the clear() rewrites, the nil guards, the
// persist.go exemption directives) or stripping a //lint annotation makes
// this test — and therefore tier-1 — fail, not just the CI lint leg.
func TestSuiteCleanOnRepo(t *testing.T) {
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	paths, err := ld.Expand([]string{"./..."})
	if err != nil {
		t.Fatalf("expanding ./...: %v", err)
	}
	var findings []string
	for _, p := range paths {
		pkg, err := ld.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		for _, a := range lint.Suite() {
			diags, err := lint.Run(a, pkg)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, p, err)
			}
			for _, d := range diags {
				findings = append(findings, d.String())
			}
		}
	}
	if len(findings) > 0 {
		t.Errorf("aiaclint suite reported %d finding(s) on the repo:\n%s",
			len(findings), strings.Join(findings, "\n"))
	}
}
