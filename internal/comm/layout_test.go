package comm

// Layout differential tests: every structure must reach the same targets
// whether the cluster is one cell or rack cells. Timing legitimately
// differs — across cells the sender hears of a delivery one link latency
// later, and each cell draws jitter from its own stream — but under the
// same fault schedule the delivered/unreachable partition of every
// broadcast must not.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/predict"
	"eslurm/internal/simnet"
)

const (
	layoutComputes = 600
	layoutRack     = 150 // computes per rack cell
)

// layoutCluster builds the test cluster: one cell when workers is 0,
// otherwise the control plane on cell 0 and one cell per 150-node rack,
// executed on workers goroutines.
func layoutCluster(workers int) *cluster.Cluster {
	if workers == 0 {
		return cluster.New(simnet.NewEngine(5), cluster.Config{Computes: layoutComputes, Satellites: 2})
	}
	return cluster.NewSharded(cluster.ShardConfig{
		Computes: layoutComputes, Satellites: 2,
		Cells: 1 + layoutComputes/layoutRack,
		CellOf: func(id cluster.NodeID, role cluster.Role) int {
			if role != cluster.RoleCompute {
				return 0
			}
			return 1 + (int(id)-3)/layoutRack
		},
		Workers: workers,
		Seed:    5,
	})
}

// layoutOutcome is one broadcast's result as the layouts must agree on it.
type layoutOutcome struct {
	structure              string
	delivered, unreachable []cluster.NodeID
	res                    Result
}

// runLayout drives two fault phases, each followed by one broadcast per
// structure over every compute node, and returns the outcomes in
// broadcast order plus the group digest (0 on one cell).
func runLayout(t *testing.T, workers int) ([]layoutOutcome, uint64) {
	t.Helper()
	c := layoutCluster(workers)
	if g := c.Group(); g != nil {
		g.EnableDigest()
	}
	comps := c.Computes()
	structures := []Structure{
		Star{}, Ring{}, KTree{Width: 8}, FPTree{Width: 8, Predictor: predict.Oracle{Cluster: c}}, Binomial{},
	}
	phase := 10 * time.Minute
	// Phase one: failed relays and leaves spread over every rack, a gray
	// node and a degraded link (timing only) and a partition around part
	// of one rack. Phase two: the first failures recover, others fail,
	// and the partition is healed.
	for i := 5; i < len(comps); i += 37 {
		c.ScheduleFail(comps[i], time.Millisecond, phase)
	}
	for i := 11; i < len(comps); i += 53 {
		c.ScheduleFail(comps[i], phase+time.Millisecond, 0)
	}
	c.Net.ScheduleGray(comps[2], 6, time.Millisecond, 0)
	c.Net.ScheduleLinkDegrade(c.Master().ID, comps[0], 3, time.Millisecond)
	c.Net.SchedulePartition(comps[300:320], time.Millisecond, phase)

	b := NewBroadcaster(c)
	b.RecordResolved = true
	var out []layoutOutcome
	for p := 0; p < 2; p++ {
		for i, s := range structures {
			s := s
			at := time.Duration(p)*phase + time.Duration(i+1)*phase/8
			c.Engine.Schedule(at, func() {
				s.Broadcast(b, c.Master().ID, comps, 1024, func(r Result) {
					o := layoutOutcome{structure: s.Name(), res: r,
						delivered: slices.Clone(r.Resolved), unreachable: slices.Clone(r.Unreachable)}
					slices.Sort(o.delivered)
					slices.Sort(o.unreachable)
					out = append(out, o)
				})
			})
		}
	}
	c.RunUntil(3 * phase)
	if n := b.OutstandingSends(); n != 0 {
		t.Fatalf("workers=%d: %d delivery chains outstanding after drain", workers, n)
	}
	var digest uint64
	if g := c.Group(); g != nil {
		digest = g.Digest()
	}
	return out, digest
}

// TestLayoutPartitionsMatch: one cell and rack cells deliver to exactly
// the same targets, broadcast by broadcast, for every structure.
func TestLayoutPartitionsMatch(t *testing.T) {
	one, _ := runLayout(t, 0)
	racks, _ := runLayout(t, 2)
	if len(one) != 10 || len(racks) != 10 {
		t.Fatalf("%d and %d broadcasts finished, want 10 each", len(one), len(racks))
	}
	for i := range one {
		a, b := one[i], racks[i]
		if a.structure != b.structure {
			t.Fatalf("broadcast %d finished as %s on one cell, %s on rack cells", i, a.structure, b.structure)
		}
		if len(a.delivered)+len(a.unreachable) != layoutComputes {
			t.Errorf("broadcast %d (%s): %d delivered + %d unreachable != %d targets",
				i, a.structure, len(a.delivered), len(a.unreachable), layoutComputes)
		}
		if len(a.unreachable) == 0 {
			t.Errorf("broadcast %d (%s): nothing unreachable; the fault schedule is not exercised", i, a.structure)
		}
		if !slices.Equal(a.delivered, b.delivered) || !slices.Equal(a.unreachable, b.unreachable) {
			t.Errorf("broadcast %d (%s): one cell unreachable %v, rack cells unreachable %v",
				i, a.structure, a.unreachable, b.unreachable)
		}
	}
}

// TestLayoutWorkerInvariance: the rack-cell run is identical — results,
// timings and kernel digest — at 1, 2 and 4 workers.
func TestLayoutWorkerInvariance(t *testing.T) {
	render := func(out []layoutOutcome) string {
		s := ""
		for _, o := range out {
			s += fmt.Sprintf("%s %+v\n", o.structure, o.res)
		}
		return s
	}
	ref, refD := runLayout(t, 1)
	for _, w := range []int{2, 4} {
		got, d := runLayout(t, w)
		if d != refD {
			t.Errorf("workers=%d digest %#x, want %#x", w, d, refD)
		}
		if a, b := render(got), render(ref); a != b {
			t.Errorf("workers=%d results differ from workers=1:\n%s\nvs\n%s", w, a, b)
		}
	}
}

// shardedCluster builds a 3-cell cluster: control on cell 0, computes
// striped across cells 1 and 2.
func shardedCluster(computes, workers int, seed int64, net cluster.NetConfig) *cluster.Cluster {
	return cluster.NewSharded(cluster.ShardConfig{
		Computes:   computes,
		Satellites: 2,
		Net:        net,
		Cells:      3,
		CellOf: func(id cluster.NodeID, role cluster.Role) int {
			if role != cluster.RoleCompute {
				return 0
			}
			return 1 + int(id)%2
		},
		Workers: workers,
		Seed:    seed,
	})
}

func TestShardBroadcastStar(t *testing.T) {
	c := shardedCluster(16, 2, 5, cluster.NetConfig{})
	b := NewBroadcaster(c)
	var res Result
	got := false
	Star{}.Broadcast(b, c.Master().ID, c.Computes(), 1024, func(r Result) { res, got = r, true })
	c.Group().RunUntil(time.Minute)
	if !got {
		t.Fatal("broadcast never finished")
	}
	if res.Delivered != 16 || len(res.Unreachable) != 0 {
		t.Fatalf("delivered=%d unreachable=%v, want 16/none", res.Delivered, res.Unreachable)
	}
	if res.Messages != 16 || res.Retries != 0 {
		t.Errorf("messages=%d retries=%d, want 16/0", res.Messages, res.Retries)
	}
	if res.DeliveredElapsed <= 0 || res.Elapsed < res.DeliveredElapsed {
		t.Errorf("elapsed=%v deliveredElapsed=%v inconsistent", res.Elapsed, res.DeliveredElapsed)
	}
	if n := b.OutstandingSends(); n != 0 {
		t.Errorf("outstanding sends = %d after drain, want 0", n)
	}
}

func TestShardBroadcastTreeAdoption(t *testing.T) {
	c := shardedCluster(30, 2, 9, cluster.NetConfig{})
	comps := c.Computes()
	// Fail the first relay (tree root) before the broadcast: its subtree
	// must be adopted by the origin and still delivered.
	c.ScheduleFail(comps[0], time.Millisecond, 0)
	b := NewBroadcaster(c)
	var res Result
	c.Engine.Schedule(10*time.Millisecond, func() {
		KTree{Width: 5}.Broadcast(b, c.Master().ID, comps, 1024, func(r Result) { res = r })
	})
	c.Group().RunUntil(5 * time.Minute)
	if res.Delivered != 29 {
		t.Fatalf("delivered=%d, want 29 (all but the failed relay)", res.Delivered)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != comps[0] {
		t.Fatalf("unreachable=%v, want [%d]", res.Unreachable, comps[0])
	}
	if res.Retries == 0 {
		t.Error("no retries recorded against the failed relay")
	}
	if n := b.OutstandingSends(); n != 0 {
		t.Errorf("outstanding sends = %d after drain, want 0", n)
	}
}

// TestShardBroadcastWorkerInvariance pins digest and Result equality
// across worker counts under an adversarial network.
func TestShardBroadcastWorkerInvariance(t *testing.T) {
	run := func(workers int) (uint64, Result, string) {
		c := shardedCluster(24, workers, 13, cluster.NetConfig{LossProb: 0.05, DupProb: 0.05})
		c.Group().EnableDigest()
		comps := c.Computes()
		c.ScheduleFail(comps[7], 5*time.Millisecond, 0)
		b := NewBroadcaster(c)
		b.RecordResolved = true
		var res Result
		c.Engine.Schedule(10*time.Millisecond, func() {
			KTree{Width: 4}.Broadcast(b, c.Master().ID, comps, 2048, func(r Result) { res = r })
		})
		c.Group().RunUntil(10 * time.Minute)
		var sb []byte
		if err := c.Group().MergedMetrics().WriteText(&byteWriter{&sb}); err != nil {
			t.Fatal(err)
		}
		return c.Group().Digest(), res, string(sb)
	}
	refD, refR, refM := run(1)
	if refR.Delivered == 0 {
		t.Fatal("reference run delivered nothing")
	}
	for _, w := range []int{2, 3, 8} {
		d, r, m := run(w)
		if d != refD {
			t.Errorf("workers=%d digest %#x, want %#x", w, d, refD)
		}
		if r.Delivered != refR.Delivered || r.Messages != refR.Messages ||
			r.Retries != refR.Retries || r.Elapsed != refR.Elapsed ||
			r.DeliveredElapsed != refR.DeliveredElapsed {
			t.Errorf("workers=%d result %+v, want %+v", w, r, refR)
		}
		if m != refM {
			t.Errorf("workers=%d merged metrics differ from reference", w)
		}
	}
}

type byteWriter struct{ buf *[]byte }

func (w *byteWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}
