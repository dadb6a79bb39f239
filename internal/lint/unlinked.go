package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
)

// unlinked: no code that only tests reach. The analyzer builds every main
// package of the module once, inlining off for the module's packages so no
// small function is inlined away, reads each binary's text symbols with
// `go tool nm`, and reports every non-test function in none of them.
// Generic instantiations fold into their declaration, and a value method
// linked only through its (*T).M wrapper counts as linked; the linker
// keeps methods an interface call could reach, so the check errs toward
// keeping. Escape: an allowlist entry with a one-line reason, naming a
// package path or a function as path.Func or path.Type.Method. An
// allowlisted function that is linked is reported, so the list only
// shrinks. root is the module's root; allow maps an entry to its reason.
func Unlinked(root string, allow map[string]string) *Analyzer {
	var once sync.Once
	var linked map[string]bool
	var err error
	return &Analyzer{
		Name: "unlinked",
		Doc:  "every non-test function is linked into some main package of the module (built without inlining), or allowlisted with a reason",
		Run: func(pass *Pass) error {
			once.Do(func() { linked, err = linkedFuncs(root, allow) })
			if err != nil {
				return err
			}
			if _, ok := allow[pass.Pkg.Path()]; ok {
				return nil
			}
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
						continue
					}
					name := foldSymbol(pass.Info.Defs[fd.Name].(*types.Func).FullName())
					_, allowed := allow[name]
					switch {
					case linked[name] && allowed:
						pass.Reportf(fd.Pos(), "%s is linked; drop its allowlist entry", name)
					case !linked[name] && !allowed:
						pass.Reportf(fd.Pos(), "%s is linked into no binary: delete it, move it into a _test.go file, or allowlist it with a reason", name)
					}
				}
			}
			return nil
		},
	}
}

// linkedFuncs builds the module's main packages and returns the folded
// names of every function symbol the binaries hold.
func linkedFuncs(root string, allow map[string]string) (map[string]bool, error) {
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		if strings.TrimSpace(allow[name]) == "" {
			return nil, fmt.Errorf("unlinked: allowlist entry %s has no reason", name)
		}
	}
	out, err := goCmd(root, "list", "-f", `{{if and (eq .Name "main") .GoFiles}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	mains := strings.Fields(out)
	tmp, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if _, err := goCmd(root, append([]string{"build", "-gcflags=./...=-l", "-o", tmp + string(filepath.Separator)}, mains...)...); err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, main := range mains {
		syms, err := goCmd(root, "tool", "nm", filepath.Join(tmp, path.Base(main)))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(syms, "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				sym := strings.TrimSuffix(strings.Join(f[2:], " "), ".abi0") // assembly
				if rest, ok := strings.CutPrefix(sym, "main."); ok {         // main.F in its own binary
					sym = main + "." + rest
				}
				linked[foldSymbol(sym)] = true
			}
		}
	}
	return linked, nil
}

// foldSymbol maps a linker symbol or a types.Func's FullName to path.Func
// or path.Type.Method: type arguments go; (*T).M and (T).M become T.M.
func foldSymbol(s string) string {
	for t := ""; t != s; { // innermost brackets first
		t, s = s, typeArgs.ReplaceAllString(s, "")
	}
	return strings.NewReplacer("(*", "", "(", "", ")", "").Replace(s)
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("unlinked: go %s: %w", args[0], err)
	}
	return string(out), nil
}
