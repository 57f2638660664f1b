package perfgate

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseRecord() *Record {
	return &Record{
		Preset: "quick", Parallel: 1, GOOS: "linux", GOARCH: "amd64", NumCPU: 1,
		EventsPerSec: 1_000_000,
		Experiments: []Experiment{
			{ID: "fig7f", Events: 20_000_000, EventsPerSec: 1_400_000},
			{ID: "fig10", Events: 14_000_000, EventsPerSec: 1_000_000},
			{ID: "table8", WallMS: 16_000, Events: 0, EventsPerSec: 0},
			{ID: "table1", WallMS: 0.05, Events: 0, EventsPerSec: 0},
		},
		Kernel: []Microbench{
			{Name: "EngineStep", NsPerOp: 160, AllocsPerOp: 0},
			{Name: "EngineRand", NsPerOp: 20, AllocsPerOp: 0},
		},
	}
}

// clone returns an independent copy safe to mutate per test.
func clone(r *Record) *Record {
	c := *r
	c.Experiments = append([]Experiment(nil), r.Experiments...)
	c.Kernel = append([]Microbench(nil), r.Kernel...)
	return &c
}

func TestIdenticalRecordsPass(t *testing.T) {
	base := baseRecord()
	rep := Compare(base, clone(base), Tolerance{})
	if rep.Regressions() != 0 {
		t.Fatalf("identical records regressed:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "perfgate: ok") {
		t.Fatalf("expected ok verdict, got:\n%s", rep)
	}
}

func TestNoiseWithinToleranceDoesNotFire(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.EventsPerSec = base.EventsPerSec * 0.80           // -20%, suite tol 25%
	fresh.Experiments[0].EventsPerSec = 1_400_000 * 0.65    // -35%, exp tol 40%
	fresh.Kernel[0].NsPerOp = base.Kernel[0].NsPerOp * 1.40 // +40%, micro tol 50%
	if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("in-tolerance noise regressed:\n%s", rep)
	}
}

func TestSuiteThroughputRegressionFires(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.EventsPerSec = base.EventsPerSec * 0.70 // -30% > 25% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 {
		t.Fatalf("want 1 regression, got %d:\n%s", rep.Regressions(), rep)
	}
	if !strings.Contains(rep.String(), "suite throughput") {
		t.Fatalf("wrong finding:\n%s", rep)
	}
}

func TestExperimentRegressionFires(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Experiments[1].EventsPerSec = 500_000 // -50% > 40% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "experiment fig10") {
		t.Fatalf("want one fig10 regression:\n%s", rep)
	}
}

// TestZeroEventExperimentsGateOnWallTime covers experiments that never
// touch the simulation kernel: their wall time is judged against the
// experiment tolerance, except on a different machine (demoted to the
// num_cpu note) and below the noise floor.
func TestZeroEventExperimentsGateOnWallTime(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(fresh *Record)
		regress int
		want    string
	}{
		{"within tolerance passes", func(f *Record) { f.Experiments[2].WallMS = 16_000 * 1.35 }, 0, "perfgate: ok"},
		{"faster passes", func(f *Record) { f.Experiments[2].WallMS = 6_000 }, 0, "perfgate: ok"},
		{"beyond tolerance fails", func(f *Record) { f.Experiments[2].WallMS = 16_000 * 1.5 }, 1, "experiment table8 took 24000 ms, 50.0% above baseline 16000 ms"},
		{"different machine is a note", func(f *Record) {
			f.NumCPU = 4
			f.Experiments[2].WallMS = 16_000 * 3
		}, 0, "num_cpu differs"},
		{"below the noise floor is not gated", func(f *Record) { f.Experiments[3].WallMS = 5 }, 0, "perfgate: ok"},
		{"events in one record only is a note", func(f *Record) {
			f.Experiments[2].Events, f.Experiments[2].EventsPerSec = 1000, 100
		}, 0, "experiment table8 has simulated events in only one record"},
	}
	for _, c := range cases {
		base := baseRecord()
		fresh := clone(base)
		c.mutate(fresh)
		rep := Compare(base, fresh, Tolerance{})
		if rep.Regressions() != c.regress || !strings.Contains(rep.String(), c.want) {
			t.Errorf("%s: want %d regression(s) and %q:\n%s", c.name, c.regress, c.want, rep)
		}
	}
}

func TestMicrobenchRegressionFires(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Kernel[1].NsPerOp = 35 // +75% > 50% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "EngineRand") {
		t.Fatalf("want one EngineRand regression:\n%s", rep)
	}
}

func TestAllocRegressionHasZeroTolerance(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Kernel[0].AllocsPerOp = 1
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "allocations get zero tolerance") {
		t.Fatalf("want one alloc regression:\n%s", rep)
	}
}

// TestCPUMismatchSkipsTimingsButKeepsAllocs pins the honesty rule: on a
// different machine every timing check is demoted to a note, but the
// machine-independent allocation counts still gate.
func TestCPUMismatchSkipsTimingsButKeepsAllocs(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.NumCPU = 4
	fresh.EventsPerSec = 1 // would be a catastrophic "regression" if judged
	fresh.Kernel[0].NsPerOp = 9999
	fresh.Kernel[0].AllocsPerOp = 2
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 {
		t.Fatalf("want only the alloc regression, got %d:\n%s", rep.Regressions(), rep)
	}
	if !strings.Contains(rep.String(), "num_cpu differs") {
		t.Fatalf("missing num_cpu note:\n%s", rep)
	}
}

func TestMissingMicrobenchIsFatal(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Kernel = fresh.Kernel[:1]
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "missing from fresh run") {
		t.Fatalf("want fatal missing-microbench finding:\n%s", rep)
	}
}

func TestNewAndMissingExperimentsAreNotes(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Experiments = append(fresh.Experiments[:2], Experiment{ID: "fig99", Events: 1, EventsPerSec: 1})
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 0 {
		t.Fatalf("new/missing experiments must not be fatal:\n%s", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "experiment table8 present in baseline but missing") ||
		!strings.Contains(out, "experiment fig99 is new") {
		t.Fatalf("missing churn notes:\n%s", out)
	}
}

func TestShardMismatchSkipsExperiment(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Experiments[0].Shards = 4
	fresh.Experiments[0].EventsPerSec = 1 // must not be judged against the 0-shard baseline
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 0 || !strings.Contains(rep.String(), "shard count differs") {
		t.Fatalf("want shard-mismatch note, no regression:\n%s", rep)
	}
}

func TestZeroTolerancesFallBackToDefaults(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.EventsPerSec = base.EventsPerSec * 0.80 // within the 25% default
	if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("zero tolerance did not fall back to defaults:\n%s", rep)
	}
	if rep := Compare(base, fresh, Tolerance{Suite: 0.10}); rep.Regressions() != 1 {
		t.Fatalf("explicit 10%% suite tolerance should fire:\n%s", rep)
	}
}

// TestLoadRealBaseline proves the committed BENCH_quick.json parses and
// self-compares clean, so the CI gate can never fail on a stale schema.
func TestLoadRealBaseline(t *testing.T) {
	rec, err := Load(filepath.Join("..", "..", "BENCH_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Preset != "quick" || len(rec.Kernel) == 0 || len(rec.Experiments) == 0 {
		t.Fatalf("implausible baseline: %+v", rec)
	}
	if rep := Compare(rec, rec, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("baseline does not self-compare clean:\n%s", rep)
	}
}
