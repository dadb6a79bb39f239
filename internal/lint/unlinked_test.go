package lint_test

import (
	"strings"
	"testing"

	"aiac/internal/lint"
	"aiac/internal/lint/linttest"
)

// The fixture module testdata/src/unlinked is built as the check builds
// the repo: its one main, cmd/app, without inlining. A function only its
// test calls is reported, and so is an allowlisted one the binary links;
// a generic method linked as an instantiation, a value method reached
// through an interface, and an allowlisted function are not.
func TestUnlinkedOnFixture(t *testing.T) {
	a := lint.Unlinked("testdata/src/unlinked", map[string]string{
		"fix/lib.Oracle": "the fixture's kept reference",
		"fix/lib.Stale":  "linked since it was listed",
	})
	ld, err := lint.NewLoader("testdata/src/unlinked")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"fix/lib", "fix/cmd/app"} {
		pkg, err := ld.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		linttest.RunOn(t, pkg, a)
	}
}

func TestUnlinkedAllowlistNeedsReason(t *testing.T) {
	a := lint.Unlinked("testdata/src/unlinked", map[string]string{"fix/lib.Oracle": " "})
	pkg, err := linttest.LoadFixture("testdata/src/unlinked/lib", "fix/lib")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lint.Run(a, pkg); err == nil || !strings.Contains(err.Error(), "fix/lib.Oracle") {
		t.Fatalf("an entry without a reason gave %v, want an error naming it", err)
	}
}
