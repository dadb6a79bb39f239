// Command aiaclint is the repo's static-invariant checker: a multichecker
// over the internal/lint analyzer suite (detpure, maprange, hotalloc,
// addrstable, obsnilsafe) and the unlinked check, which builds the
// module's main packages. It loads the module's packages from source
// with the standard library's type checker — no external dependencies —
// and exits non-zero on any finding, so CI can gate on it.
//
// Usage:
//
//	go run ./cmd/aiaclint ./...
//	go run ./cmd/aiaclint -only detpure,maprange ./internal/des/...
//	go run ./cmd/aiaclint -list
//
// Each finding prints as file:line:col: analyzer: message. Intentional
// exceptions are annotated in the source (//lint:wallclock,
// //lint:unordered, //lint:nilok, //lint:addrstable-exempt); see the
// README's "Static guarantees" section for when each is legitimate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aiac/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: aiaclint [-only a,b] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "aiaclint:", err)
		os.Exit(2)
	}
	suite := append(lint.Suite(), lint.RepoUnlinked(loader.Root))
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep { //lint:unordered — error listing, not a result
			fmt.Fprintf(os.Stderr, "aiaclint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		suite = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aiaclint:", err)
		os.Exit(2)
	}

	findings := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aiaclint:", err)
			os.Exit(2)
		}
		for _, a := range suite {
			diags, err := lint.Run(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aiaclint:", err)
				os.Exit(2)
			}
			for _, d := range diags {
				fmt.Println(d)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "aiaclint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
