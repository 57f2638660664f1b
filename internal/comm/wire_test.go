package comm

// Tests for the allocation-free delivery chain: the limiter's reused wait
// line, and the allocation budget of a warm star broadcast.

import (
	"testing"

	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
)

// waitFunc adapts a closure to waiter.
type waitFunc func()

func (f waitFunc) start() { f() }

// TestLimiterFIFOReusesStorage: waiters start in arrival order, and a
// line that never empties (one push per pop, as under a steady heartbeat
// backlog) keeps its storage bounded instead of growing with every push.
func TestLimiterFIFOReusesStorage(t *testing.T) {
	l := &limiter{max: 1}
	var started []int
	push := func(i int) { l.acquire(waitFunc(func() { started = append(started, i) })) }
	push(0) // takes the slot
	for i := 1; i <= 8; i++ {
		push(i)
	}
	next := 9
	for round := 0; round < 1000; round++ {
		l.release()
		push(next)
		next++
	}
	for i, got := range started {
		if got != i {
			t.Fatalf("waiter %d started in position %d", got, i)
		}
	}
	if len(started) != 1001 {
		t.Fatalf("%d waiters started, want 1001", len(started))
	}
	if c := cap(l.queue); c > 32 {
		t.Fatalf("wait line of 8 grew to capacity %d", c)
	}
}

// starFixture is a 2048-target star broadcast from the master with 2% of
// the targets failed, so retries are part of the measured work.
func starFixture() (*simnet.Engine, *Broadcaster, cluster.NodeID, []cluster.NodeID) {
	e := simnet.NewEngine(1)
	c := cluster.New(e, cluster.Config{Computes: 2048, Satellites: 1})
	targets := c.Computes()
	for i := 0; i < len(targets); i += 50 {
		c.Fail(targets[i])
	}
	return e, NewBroadcaster(c), c.Master().ID, targets
}

// TestWarmStarAllocationBudget guards the star's allocation budget: once
// the pools are warm, a broadcast allocates its tracker, one block holding
// every target's delivery chain, and the growth of its Unreachable list —
// nothing per message or retry, so far less than one object per target.
func TestWarmStarAllocationBudget(t *testing.T) {
	e, b, master, targets := starFixture()
	round := func() {
		Star{}.Broadcast(b, master, targets, 512, nil)
		e.Run()
	}
	round()
	if n := testing.AllocsPerRun(5, round); n > 16 {
		t.Fatalf("warm star over %d targets: %v allocs, want at most 16", len(targets), n)
	}
}

// BenchmarkStarBroadcast2048 measures one star broadcast from the master
// to 2048 targets, 2% of them failed, through to its last event.
func BenchmarkStarBroadcast2048(b *testing.B) {
	e, br, master, targets := starFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Star{}.Broadcast(br, master, targets, 512, nil)
		e.Run()
	}
}
