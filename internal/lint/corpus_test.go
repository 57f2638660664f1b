package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusGolden pins every finding of every testdata/src case, message
// text included. The want harness only matches substrings, so this is
// what holds the full source → hops → sink/escape chains of the
// interprocedural passes byte for byte.
const corpusGolden = "testdata/findings.golden"

// corpusModuleCases are the multi-package cases the harness loads
// together; every directory is also a single-package case of its own.
var corpusModuleCases = [][]string{
	{"randlabel_a", "randlabel_b"},
	{"randlabel_sup_a", "randlabel_sup_b"},
}

// corpusFindings runs every analyzer over every case, loaded with
// loadCase like the want harness, and renders the findings as
// "file:line:col: [analyzer] message" with paths relative to
// testdata/src, one "== case" header per case.
func corpusFindings(t *testing.T) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var cases [][]string
	for _, e := range entries {
		if e.IsDir() {
			cases = append(cases, []string{e.Name()})
		}
	}
	cases = append(cases, corpusModuleCases...)

	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, names := range cases {
		fmt.Fprintf(&b, "== %s\n", strings.Join(names, "+"))
		for _, f := range Run(loadCase(t, names), Analyzers()) {
			rel, err := filepath.Rel(srcRoot, f.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", filepath.ToSlash(rel), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	return b.String()
}

// TestCorpusGolden diffs the whole corpus against the recorded findings.
func TestCorpusGolden(t *testing.T) {
	want, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := corpusFindings(t)
	if got == string(want) {
		return
	}
	wantLines := make(map[string]bool)
	for _, line := range strings.Split(string(want), "\n") {
		wantLines[line] = true
	}
	gotLines := make(map[string]bool)
	for _, line := range strings.Split(got, "\n") {
		gotLines[line] = true
		if !wantLines[line] {
			t.Errorf("new finding: %s", line)
		}
	}
	for _, line := range strings.Split(string(want), "\n") {
		if !gotLines[line] {
			t.Errorf("missing finding: %s", line)
		}
	}
	if !t.Failed() {
		t.Errorf("findings match %s line for line but not in order", corpusGolden)
	}
}
