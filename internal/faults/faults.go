// Package faults builds failure campaigns for experiments: reusable
// scenario generators that schedule node failures on a simulated cluster
// and announce them (or not — some failures are silent) to the monitoring
// subsystem. The paper's §VII-A deployment saw exactly these shapes: "28
// small-scale failure events ... 103 single-node failures" plus "a
// large-scale node failure involving more than 600 nodes caused by
// hardware replacement".
//
// Determinism: campaign shapes, timings and victim sets draw exclusively
// from the cluster engine's labeled RNG streams and fire as engine
// events, so a campaign replays bit-identically from its seed — the
// property the chaos harness's digest-pinned tests stand on.
package faults

import (
	"math/rand"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/monitor"
	"eslurm/internal/topo"
)

// Kind classifies an injected event. The zero value is a fail-stop; the
// adversarial scenarios (PR 3) tag their events so reports can break a
// mixed campaign down by failure mode.
type Kind string

const (
	KindFailStop  Kind = ""
	KindGray      Kind = "gray"
	KindPartition Kind = "partition"
)

// Event records one injected failure for reporting.
type Event struct {
	Node   cluster.NodeID
	At     time.Duration
	Down   time.Duration
	Silent bool
	RackID int  // -1 unless rack-correlated
	Kind   Kind // "" = fail-stop
}

// Campaign injects scenarios into one cluster/monitor pair and records
// what it did.
type Campaign struct {
	Cluster *cluster.Cluster
	Monitor *monitor.Subsystem // may be nil: nothing is announced
	// SilentFraction of failures bypass the monitoring subsystem (the
	// fault also severs the monitoring path).
	SilentFraction float64

	Events []Event

	rng *rand.Rand
}

// New builds an empty campaign.
func New(c *cluster.Cluster, m *monitor.Subsystem, silentFraction float64) *Campaign {
	return &Campaign{
		Cluster: c, Monitor: m, SilentFraction: silentFraction,
		rng: c.Engine.Rand("faults/silent"),
	}
}

// inject schedules one failure, announcing it unless silent.
func (cp *Campaign) inject(node cluster.NodeID, at, down time.Duration, rack int) {
	silent := cp.Monitor == nil
	if !silent && cp.SilentFraction > 0 {
		silent = cp.rng.Float64() < cp.SilentFraction
	}
	if !silent {
		cp.Monitor.NoticeImpendingFailure(node, at)
	}
	cp.Cluster.ScheduleFail(node, at, down)
	cp.Events = append(cp.Events, Event{Node: node, At: at, Down: down, Silent: silent, RackID: rack})
}

// Background schedules independent single-node failures at the given
// Poisson-like rate (events per day across the cluster) over the horizon,
// each down for downMin..downMax.
func (cp *Campaign) Background(ratePerDay float64, horizon, downMin, downMax time.Duration) {
	if ratePerDay <= 0 {
		return
	}
	rng := cp.Cluster.Engine.Rand("faults/background")
	comps := cp.Cluster.Computes()
	meanGap := time.Duration(float64(24*time.Hour) / ratePerDay)
	at := time.Duration(rng.ExpFloat64() * float64(meanGap))
	for at < horizon {
		node := comps[rng.Intn(len(comps))]
		down := downMin
		if downMax > downMin {
			down += time.Duration(rng.Int63n(int64(downMax - downMin)))
		}
		cp.inject(node, at, down, -1)
		at += time.Duration(rng.ExpFloat64() * float64(meanGap))
	}
}

// Burst schedules a simultaneous multi-node event (hardware replacement,
// firmware rollout) taking count scattered nodes down at `at`.
func (cp *Campaign) Burst(at time.Duration, count int, down time.Duration) {
	comps := cp.Cluster.Computes()
	if count > len(comps) {
		count = len(comps)
	}
	if count <= 0 {
		return
	}
	stride := len(comps) / count
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < count; i++ {
		cp.inject(comps[(i*stride)%len(comps)], at, down, -1)
	}
}

// RackOutage takes every compute node of one rack down at `at` (power
// rail or switch loss). Rack outages are inherently correlated: all
// victims share interior tree positions under ID-ordered lists, which is
// the worst case the FP-Tree's rearranging defends against.
func (cp *Campaign) RackOutage(tp topo.Topology, rackID int, at, down time.Duration) int {
	n := 0
	for _, id := range cp.Cluster.Computes() {
		if tp.Rack(id) == rackID {
			cp.inject(id, at, down, rackID)
			n++
		}
	}
	return n
}

// SilentCount returns the number of injected failures the monitoring
// subsystem was never told about.
func (cp *Campaign) SilentCount() int {
	k := 0
	for _, e := range cp.Events {
		if e.Silent {
			k++
		}
	}
	return k
}

// NodesAffected returns the number of distinct nodes in the campaign.
func (cp *Campaign) NodesAffected() int {
	seen := map[cluster.NodeID]bool{}
	for _, e := range cp.Events {
		seen[e.Node] = true
	}
	return len(seen)
}
