package chaos

import (
	"strings"
	"testing"
)

// shardedCritpath runs the pinned sharded soak config with tracing on
// and returns its critical-path report text.
func shardedCritpath(t *testing.T, workers int) string {
	t.Helper()
	cfg := shardSoakConfig(workers)
	cfg.Trace = true
	rep := ShardedSoak(cfg)
	if rep.Violations() > 0 {
		t.Fatalf("soak violated invariants:\n%s", rep.String())
	}
	return rep.CritpathReport(5).String()
}

// TestShardedCritpathWorkerInvariant is the tentpole acceptance pin: the
// same-seed critical-path report is byte-identical across reruns and
// across worker counts, and its digest is pinned — any change to span
// emission, the DAG stitch, or the attribution walk moves it and must be
// deliberate.
func TestShardedCritpathWorkerInvariant(t *testing.T) {
	ref := shardedCritpath(t, 1)
	if again := shardedCritpath(t, 1); again != ref {
		t.Fatal("same-seed rerun produced different critpath report bytes")
	}
	for _, w := range []int{2, 4} {
		if got := shardedCritpath(t, w); got != ref {
			t.Errorf("workers=%d critpath report differs from workers=1:\n%s\nvs\n%s", w, got, ref)
		}
	}
	const want = "digest=92cff597f17adea5"
	if !strings.Contains(ref, want) {
		tail := ref
		if i := strings.LastIndex(tail, "digest="); i >= 0 {
			tail = tail[i:]
		}
		t.Errorf("sharded critpath report digest moved off its pin: got %s want %s", strings.TrimSpace(tail), want)
	}
}

// TestShardedSoakDigestUnchangedByTracing proves span recording on the
// sharded kernel is passive: the pinned soak digest is identical with
// per-cell tracing armed.
func TestShardedSoakDigestUnchangedByTracing(t *testing.T) {
	cfg := shardSoakConfig(2)
	cfg.Trace = true
	rep := ShardedSoak(cfg)
	const want = "08ddd58acb357009"
	if got := rep.Digest(); got != want {
		t.Errorf("tracing moved the sharded soak digest: %s != pinned %s", got, want)
	}
	for _, s := range rep.Seeds {
		if len(s.CellTraces) == 0 {
			t.Fatalf("seed %d carried no cell traces with Trace set", s.Seed)
		}
		n := 0
		for _, tr := range s.CellTraces {
			n += tr.Len()
		}
		if n == 0 {
			t.Fatalf("seed %d recorded zero spans across cells", s.Seed)
		}
	}
}

// TestSingleEngineCritpathDeterminism: the legacy soak's critical-path
// report is byte-identical across reruns of the same seed.
func TestSingleEngineCritpathDeterminism(t *testing.T) {
	run := func() string {
		cfg := pinCfg()
		cfg.Seeds = 1
		cfg.Trace = true
		rep := Soak(cfg)
		return rep.CritpathReport(5).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed critpath reports differ:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty critpath report from a traced soak")
	}
}
