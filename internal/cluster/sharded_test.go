package cluster

// Tests for a cluster spread over rack cells: the cross-cell leg of the
// wire (landing on the destination's cell, ack or nack back on the
// sender's), fault replicas flipping on every cell, and worker
// invariance.

import (
	"testing"
	"time"
)

// legs adapts test closures to Receiver; any may be nil.
type legs struct{ arrived, delivered, failed func() }

func (l legs) Arrived() {
	if l.arrived != nil {
		l.arrived()
	}
}

func (l legs) Delivered() {
	if l.delivered != nil {
		l.delivered()
	}
}

func (l legs) Failed() {
	if l.failed != nil {
		l.failed()
	}
}

// twoCell builds a 2-cell cluster: master+satellite on cell 0, computes
// on cell 1.
func twoCell(t testing.TB, workers int, net NetConfig) *Cluster {
	t.Helper()
	return NewSharded(ShardConfig{
		Computes:   4,
		Satellites: 1,
		Net:        net,
		Cells:      2,
		CellOf: func(id NodeID, role Role) int {
			if role == RoleCompute {
				return 1
			}
			return 0
		},
		Workers: workers,
		Seed:    7,
	})
}

func TestShardedSendDelivers(t *testing.T) {
	c := twoCell(t, 1, NetConfig{Jitter: Disabled})
	comp := c.Computes()[0]
	var arrived, acked time.Duration
	c.Net.Send(c.Master().ID, comp, 1000, legs{
		arrived:   func() { arrived = c.EngineOf(comp).Now() },
		delivered: func() { acked = c.Now() },
	})
	c.RunUntil(time.Second)

	cfg := c.Net.Config()
	wantArrive := cfg.ConnectCost + c.Net.TransferTime(1000)
	if arrived != wantArrive {
		t.Errorf("arrived at %v, want %v", arrived, wantArrive)
	}
	if want := wantArrive + cfg.Latency; acked != want {
		t.Errorf("acked at %v, want %v", acked, want)
	}
	// Meters: one message out on the master, one in on the compute, all
	// sockets drained.
	if _, out := c.Master().Meter.Messages(); out != 1 {
		t.Errorf("master messages out = %d, want 1", out)
	}
	if in, _ := c.Node(comp).Meter.Messages(); in != 1 {
		t.Errorf("compute messages in = %d, want 1", in)
	}
	if s := c.Master().Meter.Sockets(); s != 0 {
		t.Errorf("master sockets = %d, want 0", s)
	}
	if s := c.Node(comp).Meter.Sockets(); s != 0 {
		t.Errorf("compute sockets = %d, want 0", s)
	}
	// The sender's message came home with the ack; the destination's
	// socket-close leg went back to its own cell's pool.
	if len(c.cells[0].free) != 1 || len(c.cells[1].free) != 1 {
		t.Errorf("pools hold %d and %d messages, want 1 and 1", len(c.cells[0].free), len(c.cells[1].free))
	}
}

func TestShardedSendFailStop(t *testing.T) {
	c := twoCell(t, 2, NetConfig{Jitter: Disabled})
	comp := c.Computes()[1]
	c.ScheduleFail(comp, time.Millisecond, 0)
	var failedAt time.Duration
	delivered := false
	// Send after the failure flip: fails at the sender with the connect
	// timeout, exactly like a same-cell message.
	c.Engine.Schedule(2*time.Millisecond, func() {
		c.Net.Send(c.Master().ID, comp, 100, legs{
			arrived: func() { delivered = true },
			failed:  func() { failedAt = c.Now() },
		})
	})
	c.RunUntil(5 * time.Second)
	if delivered {
		t.Fatal("message to failed node delivered")
	}
	if want := 2*time.Millisecond + c.Net.Config().ConnectTimeout; failedAt != want {
		t.Errorf("failed at %v, want %v", failedAt, want)
	}
	if !c.Node(comp).Failed() || !c.FailedOn(comp, comp) {
		t.Error("failure flip missing from a replica")
	}
}

// TestShardedNackAtTimeout: a destination that dies while a cross-cell
// message is in flight nacks it; the sender hears at its own connect
// timeout, not earlier.
func TestShardedNackAtTimeout(t *testing.T) {
	c := twoCell(t, 1, NetConfig{Jitter: Disabled})
	comp := c.Computes()[0]
	c.ScheduleFail(comp, time.Microsecond, 0)
	var failedAt time.Duration
	c.Net.Send(c.Master().ID, comp, 100, legs{failed: func() { failedAt = c.Now() }})
	c.RunUntil(5 * time.Second)
	if want := c.Net.Config().ConnectTimeout; failedAt != want {
		t.Errorf("nack reached the sender at %v, want its timeout %v", failedAt, want)
	}
	if s := c.Master().Meter.Sockets(); s != 0 {
		t.Errorf("master sockets = %d, want 0", s)
	}
}

func TestShardedPartitionHeals(t *testing.T) {
	c := twoCell(t, 2, NetConfig{Jitter: Disabled})
	comp := c.Computes()[0]
	// Sever the computes from everything for 100ms.
	c.Net.SchedulePartition(c.Computes(), time.Millisecond, 100*time.Millisecond)
	var out [2]string
	send := func(slot int, at time.Duration) {
		c.Engine.Schedule(at, func() {
			c.Net.Send(c.Master().ID, comp, 100, legs{
				delivered: func() { out[slot] = "ack" },
				failed:    func() { out[slot] = "fail" },
			})
		})
	}
	send(0, 2*time.Millisecond)   // inside the partition: fails
	send(1, 200*time.Millisecond) // after heal: delivers
	c.RunUntil(5 * time.Second)
	if out[0] != "fail" || out[1] != "ack" {
		t.Fatalf("outcomes = %v, want [fail ack]", out)
	}
}

// TestShardedWorkerInvariance runs an adversarial traffic storm (loss,
// duplication, jitter, faults, gray nodes) at several worker counts and
// pins digest equality — the cluster-layer shard-invariance check.
func TestShardedWorkerInvariance(t *testing.T) {
	run := func(workers int) (uint64, uint64) {
		c := NewSharded(ShardConfig{
			Computes:   12,
			Satellites: 2,
			Net:        NetConfig{LossProb: 0.1, DupProb: 0.1},
			Cells:      4,
			CellOf: func(id NodeID, role Role) int {
				if role != RoleCompute {
					return 0
				}
				return 1 + int(id)%3
			},
			Workers: workers,
			Seed:    11,
		})
		c.Group().EnableDigest()
		comps := c.Computes()
		c.ScheduleFail(comps[3], 5*time.Millisecond, 20*time.Millisecond)
		c.Net.ScheduleGray(comps[5], 4.0, time.Millisecond, 0)
		c.Net.SchedulePartition(comps[6:9], 10*time.Millisecond, 30*time.Millisecond)
		var acked, failed int
		master := c.Master().ID
		for round := 0; round < 6; round++ {
			at := time.Duration(round+1) * 4 * time.Millisecond
			c.Engine.Schedule(at, func() {
				for _, id := range comps {
					id := id
					c.Net.Send(master, id, 512, legs{
						// The receiver answers over the same substrate.
						arrived:   func() { c.Net.Send(id, master, 64, nil) },
						delivered: func() { acked++ },
						failed:    func() { failed++ },
					})
				}
			})
		}
		c.RunUntil(10 * time.Second)
		if acked+failed == 0 {
			t.Fatal("no sends resolved")
		}
		return c.Group().Digest(), c.Group().Processed()
	}
	refD, refP := run(1)
	for _, w := range []int{2, 4} {
		if d, p := run(w); d != refD || p != refP {
			t.Errorf("workers=%d: digest/processed %#x/%d, want %#x/%d", w, d, p, refD, refP)
		}
	}
}

// TestWarmCrossCellSendAllocatesNothing guards the cross-cell wire's
// allocation budget: once both cells' message pools and the group's
// merge buffer are warm, a send from cell 0 to cell 1 — delivered,
// nacked, or parked without a receiver — allocates nothing per message.
func TestWarmCrossCellSendAllocatesNothing(t *testing.T) {
	c := twoCell(t, 1, NetConfig{DupProb: 0.5})
	master, comps := c.Master().ID, c.Computes()
	c.Fail(comps[1])
	var r tally
	round := func() {
		c.Net.Send(master, comps[0], 100, &r)
		c.Net.Send(master, comps[1], 100, &r)
		c.Net.SendPersistent(master, comps[2], 100, &r)
		c.Net.Send(master, comps[3], 100, nil)
		c.RunUntil(c.Now() + 2*time.Second)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("warm cross-cell wire: %v allocs per 4 messages, want 0", n)
	}
	if r.delivered == 0 || r.failed == 0 || r.arrived < r.delivered {
		t.Fatalf("arrived %d delivered %d failed %d: the sends did not exercise both outcomes", r.arrived, r.delivered, r.failed)
	}
}

// BenchmarkCrossCellSend measures one message from the master's cell to
// a compute cell through to its ack, on a 2-cell cluster.
func BenchmarkCrossCellSend(b *testing.B) {
	c := twoCell(b, 1, NetConfig{})
	master, ids := c.Master().ID, c.Computes()
	var r tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Net.Send(master, ids[i%len(ids)], 256, &r)
		c.RunUntil(c.Now() + 10*time.Millisecond)
	}
}
