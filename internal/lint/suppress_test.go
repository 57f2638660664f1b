package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseOnly builds a Package with syntax but no type info — enough for
// the suppression scanner, which never touches types.
func parseOnly(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: "eslurm/internal/x", Fset: fset, Files: []*ast.File{f}}
}

var testKnownSet = map[string]bool{
	"walltime": true, "detrand": true, "maporder": true, "errdrop": true,
}

func TestSuppressionCoversSameAndNextLine(t *testing.T) {
	p := parseOnly(t, `package x

func f() {
	//eslurmlint:ignore detrand fixture stream, never reaches the simulation
	_ = 1
	_ = 2 //eslurmlint:ignore walltime decorative timestamp
}
`)
	sups, malformed := collectSuppressions([]*Package{p}, testKnownSet)
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed findings: %v", malformed)
	}
	mk := func(line int, analyzer string) Finding {
		f := Finding{Analyzer: analyzer}
		f.Pos.Filename = "x.go"
		f.Pos.Line = line
		return f
	}
	// Directive on line 4: covers lines 4 and 5 for detrand only.
	for _, tc := range []struct {
		f    Finding
		want bool
	}{
		{mk(4, "detrand"), true},
		{mk(5, "detrand"), true},
		{mk(6, "detrand"), false},
		{mk(5, "walltime"), false}, // wrong analyzer
		{mk(6, "walltime"), true},  // same-line form
		{mk(7, "walltime"), true},  // line-below form
		{mk(3, "detrand"), false},  // directives never reach upward
	} {
		if got := sups.covers(tc.f); got != tc.want {
			t.Errorf("covers(%s line %d) = %v, want %v", tc.f.Analyzer, tc.f.Pos.Line, got, tc.want)
		}
	}
}

func TestSuppressionMalformed(t *testing.T) {
	cases := []struct {
		src     string
		wantMsg string
	}{
		{"//eslurmlint:ignore detrand", "needs a reason"},
		{"//eslurmlint:ignore", "must name known analyzers"},
		{"//eslurmlint:ignore nosuchpass too clever", "must name known analyzers"},
		{"//eslurmlint:ignore detrand,nosuchpass both streams are fixtures", "must name known analyzers"},
		{"//eslurmlint:ignore detrand, walltime space after the comma splits the list", "must name known analyzers"},
		{"//eslurmlint:ignore detrand,,walltime empty element", "must name known analyzers"},
		{"//eslurmlint:ignore detrand \t ", "needs a reason"},
		{"//eslurmlint:disable detrand whatever", "unknown eslurmlint directive"},
		{"//eslurmlint:", "empty eslurmlint directive"},
	}
	for _, tc := range cases {
		p := parseOnly(t, "package x\n\n"+tc.src+"\nfunc f() {}\n")
		sups, malformed := collectSuppressions([]*Package{p}, testKnownSet)
		if len(sups) != 0 {
			t.Errorf("%q: malformed directive still registered a suppression", tc.src)
		}
		if len(malformed) != 1 {
			t.Errorf("%q: got %d malformed findings, want 1", tc.src, len(malformed))
			continue
		}
		if f := malformed[0]; f.Analyzer != "suppress" || !strings.Contains(f.Message, tc.wantMsg) {
			t.Errorf("%q: finding %q does not mention %q", tc.src, f.Message, tc.wantMsg)
		}
	}
}

// TestSuppressionCommaList covers the multiple-analyzers-on-one-line
// form: each named analyzer gets its own entry, scoped to the same two
// lines, and analyzers not on the list stay uncovered.
func TestSuppressionCommaList(t *testing.T) {
	p := parseOnly(t, `package x

//eslurmlint:ignore detrand,walltime fixture value, never reaches the simulation
func f() {}
`)
	sups, malformed := collectSuppressions([]*Package{p}, testKnownSet)
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed findings: %v", malformed)
	}
	if len(sups) != 2 {
		t.Fatalf("got %d suppression entries, want 2", len(sups))
	}
	for _, tc := range []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"detrand", 3, true},
		{"detrand", 4, true},
		{"walltime", 3, true},
		{"walltime", 4, true},
		{"maporder", 4, false}, // not on the list
		{"detrand", 5, false},
	} {
		f := Finding{Analyzer: tc.analyzer}
		f.Pos.Filename = "x.go"
		f.Pos.Line = tc.line
		if got := sups.covers(f); got != tc.want {
			t.Errorf("covers(%s line %d) = %v, want %v", tc.analyzer, tc.line, got, tc.want)
		}
	}
}

// TestSuppressionLastLine pins the EOF edge: a directive on the final
// line of a file still registers and covers its own line (its line-below
// reach simply points past the file).
func TestSuppressionLastLine(t *testing.T) {
	src := "package x\n\nfunc f() {}\n\n//eslurmlint:ignore detrand trailing fixture note"
	p := parseOnly(t, src)
	sups, malformed := collectSuppressions([]*Package{p}, testKnownSet)
	if len(malformed) != 0 {
		t.Fatalf("unexpected malformed findings: %v", malformed)
	}
	f := Finding{Analyzer: "detrand"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 5
	if !sups.covers(f) {
		t.Fatal("last-line directive does not cover its own line")
	}
}

// TestSuppressionUsedTracking pins the staleignore bookkeeping: covers()
// marks the matched entry, and unused() only reports entries for enabled
// analyzers, never staleignore's own.
func TestSuppressionUsedTracking(t *testing.T) {
	p := parseOnly(t, `package x

//eslurmlint:ignore detrand used below
//eslurmlint:ignore walltime never matches anything
//eslurmlint:ignore errdrop analyzer not enabled this run
func f() {}
`)
	known := map[string]bool{"detrand": true, "walltime": true, "errdrop": true, "staleignore": true}
	sups, _ := collectSuppressions([]*Package{p}, known)
	f := Finding{Analyzer: "detrand"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 4
	if !sups.covers(f) {
		t.Fatal("detrand finding not covered")
	}
	enabled := map[string]bool{"detrand": true, "walltime": true, "staleignore": true}
	unused := sups.unused(enabled)
	if len(unused) != 1 || unused[0].analyzer != "walltime" || unused[0].line != 4 {
		t.Fatalf("unused = %+v, want the walltime directive on line 4 only", unused)
	}
}

func TestSuppressionTestpathTolerated(t *testing.T) {
	p := parseOnly(t, "//eslurmlint:testpath eslurm/cmd/x\npackage x\n")
	_, malformed := collectSuppressions([]*Package{p}, testKnownSet)
	if len(malformed) != 0 {
		t.Fatalf("testpath directive reported as malformed: %v", malformed)
	}
	if got, ok := testPathOverride(p); !ok || got != "eslurm/cmd/x" {
		t.Fatalf("testPathOverride = %q, %v", got, ok)
	}
}

// TestRunReportsMalformedSuppressions checks the pipeline surfaces parser
// findings even with no analyzers enabled.
func TestRunReportsMalformedSuppressions(t *testing.T) {
	p := parseOnly(t, "package x\n\n//eslurmlint:ignore detrand\nfunc f() {}\n")
	got := Run([]*Package{p}, nil)
	if len(got) != 1 || got[0].Analyzer != "suppress" {
		t.Fatalf("Run = %v, want one suppress finding", got)
	}
}
