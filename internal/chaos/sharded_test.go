package chaos

import (
	"testing"
	"time"
)

// shardSoakConfig is the fixed configuration the sharded determinism
// tests pin: big enough to cross rack cells and exercise every fault
// type and broadcast shape, small enough for -race CI.
func shardSoakConfig(workers int) ShardedConfig {
	return ShardedConfig{
		Seeds:      2,
		Computes:   1100, // 3 rack cells, the last one partial
		Satellites: 2,
		Span:       2 * time.Minute,
		Broadcasts: 6,
		Workers:    workers,
	}
}

// TestShardedSoakWorkerSweep runs the same soak at 1, 2, 4 and 8 workers
// and requires byte-identical reports (kernel digests included). 8
// workers exceeds the 4-cell layout, covering the clamp.
func TestShardedSoakWorkerSweep(t *testing.T) {
	ref := ShardedSoak(shardSoakConfig(1))
	if ref.Violations() > 0 {
		t.Fatalf("reference soak violated invariants:\n%s", ref.String())
	}
	refS := ref.String()
	for _, w := range []int{2, 4, 8} {
		rep := ShardedSoak(shardSoakConfig(w))
		if s := rep.String(); s != refS {
			t.Errorf("workers=%d report differs from single-worker run:\n%s\nvs\n%s", w, s, refS)
		}
	}
}

// TestShardedSoakDigestPinned pins the sharded soak contract: any change
// to the kernel, wire model, campaign generator or broadcaster changes
// this digest and must be made deliberately.
func TestShardedSoakDigestPinned(t *testing.T) {
	rep := ShardedSoak(shardSoakConfig(2))
	const want = "08ddd58acb357009"
	if got := rep.Digest(); got != want {
		t.Errorf("sharded soak digest %s, want %s\n%s", got, want, rep.String())
	}
}

// TestShardedSoakAdversarial cranks loss/dup and the campaign and checks
// the invariants still hold (and results remain worker-invariant).
func TestShardedSoakAdversarial(t *testing.T) {
	mk := func(workers int) ShardedConfig {
		return ShardedConfig{
			Seeds: 1, BaseSeed: 7, Computes: 600, Satellites: 2,
			Span: 2 * time.Minute, Broadcasts: 6, Workers: workers,
			Fails: 12, Grays: 6, Partitions: 2, Degrades: 4,
			LossProb: 0.05, DupProb: 0.05,
		}
	}
	ref := ShardedSoak(mk(1))
	if ref.Violations() > 0 {
		t.Fatalf("adversarial soak violated invariants:\n%s", ref.String())
	}
	if got := ShardedSoak(mk(4)).String(); got != ref.String() {
		t.Errorf("workers=4 adversarial report differs:\n%s\nvs\n%s", got, ref.String())
	}
}
