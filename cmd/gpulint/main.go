// Command gpulint runs the project-specific static-analysis suite over
// the module: unit safety of the MHz/Hz clock conventions, error
// hygiene, orphan goroutines, leaked cancel functions, and the
// cross-function determinism-taint pass guarding the byte-identity
// contract. Lock copies are left to go vet. See internal/lint for the
// analyzer rationale and docs/ARCHITECTURE.md for how to add a rule.
//
// Usage:
//
//	gpulint [-json] [-why] [-only analyzer[,analyzer]] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// -why prints, under each interprocedural finding, the source→sink call
// path that produced it (in -json mode it adds a "trace" field).
// Exit status: 0 clean, 1 findings, 2 load or usage failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpuperf/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line (file, line, col, analyzer, message)")
	why := flag.Bool("why", false, "print the source→sink call path under each interprocedural finding")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "gpulint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fail(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Patterns are typed relative to the working directory; the loader
	// resolves them against the module root.
	for i, p := range patterns {
		if p != "./..." && p != "..." && !filepath.IsAbs(p) {
			patterns[i] = filepath.Join(cwd, p)
		}
	}

	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fail(err)
	}
	diags := lint.Run(pkgs, analyzers)

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags, cwd, *why); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", rel(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			if *why {
				for _, s := range d.Trace {
					fmt.Printf("\t%s:%d:%d: %s\n", rel(cwd, s.Pos.Filename), s.Pos.Line, s.Pos.Column, s.Desc)
				}
			}
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "gpulint: %d findings in %d packages\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}

// rel shortens path relative to base when it stays inside base.
func rel(base, path string) string {
	if r, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gpulint: %v\n", err)
	os.Exit(2)
}
