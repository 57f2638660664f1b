// Command eslurmlint runs the project's determinism-enforcing static
// analyzers (run `eslurmlint -list` for the full table) over the module.
//
// Usage:
//
//	go run ./cmd/eslurmlint ./...
//
// Each argument is a directory or a dir/... pattern; the default is ./...
// (every package under the current directory). A pattern that matches no
// packages is a usage error (exit 2), so a typo'd path in CI can never
// pass as a clean run.
//
// Findings print as "file:line: [analyzer] message" and any unsuppressed
// finding makes the process exit 1; loading or type-checking failures
// exit 2. Suppress a site with `//eslurmlint:ignore <analyzer> <reason>`
// on the offending line or the line above it.
//
// Flags:
//
//	-list        print the analyzer table (markdown; the README embeds it) and exit
//	-sarif       emit findings as SARIF 2.1.0 on stdout and exit 0 even
//	             when findings exist — code scanning renders them as
//	             alerts, and the plain-mode CI step stays the hard gate
//	-only A,B    run only the named analyzers (default: all); unknown
//	             names are usage errors. Suppressions naming analyzers
//	             that did not run are never judged stale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"eslurm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit so tests can drive every exit path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eslurmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer table (markdown) and exit")
	sarif := fs.Bool("sarif", false, "emit SARIF 2.1.0 on stdout; findings do not fail the run")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: eslurmlint [-list] [-sarif] [-only a,b] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := byName[name]
			if a == nil {
				fmt.Fprintf(stderr, "eslurmlint: -only: unknown analyzer %q (see -list)\n", name)
				fs.Usage()
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if *list {
		fmt.Fprintln(stdout, "| analyzer | rule |")
		fmt.Fprintln(stdout, "|----------|------|")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "| `%s` | %s |\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "eslurmlint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "eslurmlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "eslurmlint:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "eslurmlint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "eslurmlint: no packages match %s\n", strings.Join(patterns, " "))
		fs.Usage()
		return 2
	}

	findings := lint.Run(pkgs, analyzers)

	if *sarif {
		if err := lint.WriteSARIF(stdout, findings, analyzers, cwd); err != nil {
			fmt.Fprintln(stderr, "eslurmlint:", err)
			return 2
		}
		return 0
	}
	for _, f := range findings {
		pos := f.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && len(rel) < len(pos.Filename) {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", pos.Filename, pos.Line, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "eslurmlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
