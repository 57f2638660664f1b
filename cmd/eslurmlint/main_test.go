package main

import (
	"encoding/json"
	"strings"
	"testing"

	"eslurm/internal/lint"
)

// run is exercised directly so every exit path of the CLI is covered
// without spawning processes.

func TestRunBadPackagePath(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"./no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no/such/dir") {
		t.Errorf("stderr does not name the bad pattern: %s", errb.String())
	}
}

func TestRunFindingPresent(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"testdata/violating"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[detrand]") {
		t.Errorf("stdout missing the detrand finding:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "violating.go:") {
		t.Errorf("stdout missing file:line position:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "1 finding(s)") {
		t.Errorf("stderr missing the finding count: %s", errb.String())
	}
}

func TestRunAllSuppressed(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"testdata/suppressed"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"walltime", "detrand", "maporder", "errdrop"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestRunOnly: -only scopes the run to the named analyzers — the
// violating package's detrand finding fires under -only detrand and
// vanishes under -only walltime — and an unknown name is a usage error,
// not a silently empty (therefore clean-looking) run.
func TestRunOnly(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-only", "detrand", "testdata/violating"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[detrand]") {
		t.Errorf("-only detrand missed the finding:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-only", "walltime", "testdata/violating"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (detrand not selected); out: %s", code, out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-only", "nosuchanalyzer", "testdata/violating"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 for unknown analyzer", code)
	}
	if !strings.Contains(errb.String(), "nosuchanalyzer") {
		t.Errorf("stderr does not name the unknown analyzer: %s", errb.String())
	}
}

// TestRunBadFlag: an unknown flag is a usage error; -j, -cache and
// -ownership are not flags.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-j", "4", "testdata/violating"},
		{"-cache", "d", "testdata/violating"},
		{"-ownership", "testdata/violating"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// TestRunListMarkdown: -list emits the markdown table the README embeds,
// one row per analyzer.
func TestRunListMarkdown(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "| analyzer |") {
		t.Fatalf("-list is not a markdown table:\n%s", out.String())
	}
	for _, line := range lines[2:] {
		if !strings.HasPrefix(line, "| `") {
			t.Errorf("row not in | `name` | doc | form: %s", line)
		}
	}
}

// TestRunNoMatch: a pattern that resolves to zero packages is a usage
// error, not a silently clean run.
func TestRunNoMatch(t *testing.T) {
	empty := t.TempDir()
	var out, errb strings.Builder
	if code := run([]string{empty + "/..."}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no packages match") {
		t.Errorf("stderr missing the no-match diagnostic: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr missing usage text: %s", errb.String())
	}
}

// TestRunSARIF: findings present, but -sarif exits 0 and emits a valid
// SARIF log with the finding annotated at a repo-relative path — code
// scanning surfaces the alerts while the plain-mode step stays the gate.
func TestRunSARIF(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-sarif", "testdata/violating"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("unexpected SARIF shape:\n%s", out.String())
	}
	// -sarif reports findings in the log body and still exits 0: CI
	// uploads the artifact and the blocking decision stays with the
	// plain-text gate. The rules list names the rule set: every
	// analyzer plus the suppress pseudo-rule.
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(lint.Analyzers())+1; got != want {
		t.Errorf("SARIF rules = %d, want %d", got, want)
	}
	if log.Runs[0].Results[0].RuleID != "detrand" {
		t.Errorf("ruleId = %q, want detrand", log.Runs[0].Results[0].RuleID)
	}
	if !strings.Contains(out.String(), "testdata/violating/violating.go") {
		t.Errorf("SARIF missing the relative artifact path:\n%s", out.String())
	}
}
