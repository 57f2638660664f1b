package cluster

// Tests for the pooled message wire: a message returns to its network's
// pool only after its last scheduled event, and a warm network sends
// without allocating.

import (
	"testing"
	"time"

	"eslurm/internal/simnet"
)

// tally is an allocation-free Receiver for the wire tests.
type tally struct{ arrived, delivered, failed int }

func (r *tally) Arrived()   { r.arrived++ }
func (r *tally) Delivered() { r.delivered++ }
func (r *tally) Failed()    { r.failed++ }

// TestMessagePoolLifecycle: under duplication a delivered message still
// has its close-socket and duplicate events pending, so it must stay out
// of the pool until both have fired; the next send then reuses it.
func TestMessagePoolLifecycle(t *testing.T) {
	c := newNetCluster(t, 2, NetConfig{DupProb: 1, Jitter: Disabled})
	a, b := c.Computes()[0], c.Computes()[1]
	var r tally
	c.Net.Send(a, b, 100, &r)
	for r.delivered == 0 && c.Engine.Step() {
	}
	if len(c.cells[0].free) != 0 {
		t.Fatal("message pooled while its close-socket and duplicate events were pending")
	}
	c.Engine.Run()
	if r.delivered != 2 || r.failed != 0 {
		t.Fatalf("delivered %d failed %d, want 2 and 0", r.delivered, r.failed)
	}
	if len(c.cells[0].free) != 1 {
		t.Fatalf("pool holds %d messages after the last event, want 1", len(c.cells[0].free))
	}
	if s := c.Node(a).Meter.Sockets() + c.Node(b).Meter.Sockets(); s != 0 {
		t.Fatalf("%d sockets left open", s)
	}
	m := c.cells[0].free[0]
	c.Net.SendPersistent(a, b, 100, nil)
	if len(c.cells[0].free) != 0 {
		t.Fatal("send did not reuse the pooled message")
	}
	c.Engine.Run()
	if len(c.cells[0].free) != 1 || c.cells[0].free[0] != m {
		t.Fatal("reused message did not return to the pool")
	}
}

// TestMessageFailsInFlight: a destination that dies while the message is
// in flight fails it at the sender's timeout (Send) or at once (persistent
// connection), and either message returns to the pool.
func TestMessageFailsInFlight(t *testing.T) {
	c := newNetCluster(t, 2, NetConfig{Jitter: Disabled})
	a, b := c.Computes()[0], c.Computes()[1]
	var r, p tally
	var failedAt time.Duration
	c.Net.Send(a, b, 100, &r)
	c.Net.SendPersistent(a, b, 100, &p)
	c.Engine.Schedule(time.Microsecond, func() { c.Fail(b) })
	for r.failed == 0 && c.Engine.Step() {
		if p.failed == 1 && failedAt == 0 {
			failedAt = c.Engine.Now()
		}
	}
	if want := c.Net.Config().ConnectTimeout; c.Engine.Now() != want {
		t.Fatalf("Send failed at %v, want the connect timeout %v", c.Engine.Now(), want)
	}
	if failedAt == 0 || failedAt >= c.Net.Config().ConnectTimeout {
		t.Fatalf("persistent send failed at %v, want at its arrival", failedAt)
	}
	if r.delivered+p.delivered != 0 || len(c.cells[0].free) != 2 {
		t.Fatalf("delivered %d, pooled %d messages; want 0 and 2", r.delivered+p.delivered, len(c.cells[0].free))
	}
}

// TestWarmSendAllocatesNothing guards the wire's allocation budget: once
// the message and event pools are warm, a send on either path — delivered
// or failed — allocates nothing per message.
func TestWarmSendAllocatesNothing(t *testing.T) {
	c := newNetCluster(t, 3, NetConfig{})
	a, b, dead := c.Computes()[0], c.Computes()[1], c.Computes()[2]
	c.Fail(dead)
	var r tally
	round := func() {
		c.Net.Send(a, b, 100, &r)
		c.Net.Send(a, dead, 100, &r)
		c.Net.SendPersistent(a, b, 100, &r)
		c.Engine.Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("warm network: %v allocs per 3 messages, want 0", n)
	}
}

// BenchmarkNetworkSend measures one message from the master to a compute
// node through to its last event, on a 64-node cluster.
func BenchmarkNetworkSend(b *testing.B) {
	c := New(simnet.NewEngine(1), Config{Computes: 64, Satellites: 1})
	master, ids := c.Master().ID, c.Computes()
	var r tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Net.Send(master, ids[i%len(ids)], 256, &r)
		c.Engine.Run()
	}
}
