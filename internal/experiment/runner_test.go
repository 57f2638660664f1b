package experiment

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"eslurm/internal/testutil"
)

// runnerParams shrinks every experiment far enough that the full registry
// completes in seconds; the quick-preset comparison below is the
// full-strength version of the same contract.
func runnerParams() Params {
	return Params{
		Fig5Jobs: 2000, Fig11bJobs: 800, Table8Jobs: 600,
		Fig7Nodes: 256, Fig7Span: 5 * time.Minute,
		Fig9Nodes: 512, Fig9Span: 5 * time.Minute,
		T56Nodes: 512, T56Span: 10 * time.Minute, T56Sats: []int{2, 4},
		Fig7fNodes: 256, Fig8Nodes: 256, Fig11aNodes: 512,
		PlaceNodes: 256, PlaceDays: 1,
		Fig10Scales: []int{128}, Fig10Jobs: 400,
		AblationScale: 128, AblationJobs: 400,
	}
}

// renderEmitted renders every table in emit order — exactly the bytes
// benchrunner sends to stdout.
func renderEmitted(specs []Spec, p Params, parallel int) string {
	var sb strings.Builder
	RunConcurrent(specs, p, parallel, func(r Result) {
		for _, tb := range r.Tables {
			tb.Fprint(&sb)
		}
	})
	return sb.String()
}

// fastRegistry drops the two estimator replays, which dominate runtime
// and create no engines (they are covered by the quick-preset test).
func fastRegistry() []Spec {
	var specs []Spec
	for _, s := range Registry() {
		if s.ID == "table8" || s.ID == "fig11b" {
			continue
		}
		specs = append(specs, s)
	}
	return specs
}

// TestRunConcurrentMatchesSerial is the determinism contract across the
// pool: the rendered output of a parallel run must be byte-identical to a
// serial run. The race detector covers the pool itself here.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	specs := fastRegistry()
	p := runnerParams()
	serial := renderEmitted(specs, p, 1)
	parallel := renderEmitted(specs, p, 8)
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("no output rendered")
	}
}

// TestRunConcurrentMatchesSerialQuick runs the same contract at the quick
// preset — the exact bytes `benchrunner -all` prints — with the full
// registry.
func TestRunConcurrentMatchesSerialQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick-preset suite twice")
	}
	if testutil.RaceEnabled {
		// Two full quick-preset suite runs exceed the race detector's
		// 5-10× slowdown budget (the package would blow go test's default
		// 10-minute timeout). The pool's race coverage comes from
		// TestRunConcurrentMatchesSerial over the fast registry.
		t.Skip("quick-preset double run is too slow under -race")
	}
	specs := Registry()
	p := QuickParams()
	serial := renderEmitted(specs, p, 1)
	// The sha256 of `benchrunner -all`'s stdout: every quick-preset table
	// byte for byte. A change that moves any number moves this.
	const want = "d54cd0abfa101b9d6b59bbe186e7b22e221c1a0b72e8b889b905a279c2c36d1d"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial))); got != want {
		t.Errorf("quick-preset rendering sha256 %s, want pinned %s", got, want)
	}
	parallel := renderEmitted(specs, p, 8)
	if serial != parallel {
		t.Fatal("quick-preset parallel output diverged from serial")
	}
}

// TestRunConcurrentEmitOrder: emit must see every spec exactly once, in
// registry order, regardless of completion order in the pool.
func TestRunConcurrentEmitOrder(t *testing.T) {
	specs := fastRegistry()
	var emitted []string
	results := RunConcurrent(specs, runnerParams(), 4, func(r Result) {
		emitted = append(emitted, r.Spec.ID)
	})
	if len(emitted) != len(specs) {
		t.Fatalf("emitted %d results for %d specs", len(emitted), len(specs))
	}
	for i, s := range specs {
		if emitted[i] != s.ID {
			t.Fatalf("emit order %v does not match registry order", emitted)
		}
		if results[i].Spec.ID != s.ID {
			t.Fatalf("results[%d] = %s, want %s", i, results[i].Spec.ID, s.ID)
		}
	}
}

// TestRunConcurrentStats: experiments that run simulations must report
// their engine event totals and a positive wall time.
func TestRunConcurrentStats(t *testing.T) {
	spec, ok := Lookup("fig8a")
	if !ok {
		t.Fatal("missing fig8a")
	}
	res := RunConcurrent([]Spec{spec}, runnerParams(), 1, nil)
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Events == 0 {
		t.Error("Events = 0; engine accounting is not wired through")
	}
	if res[0].Wall <= 0 {
		t.Error("Wall not measured")
	}
	if res[0].EventsPerSec() <= 0 {
		t.Error("EventsPerSec not derived")
	}
}
