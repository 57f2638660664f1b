// Package cluster models the physical substrate the resource managers run
// on: nodes with roles and failure state, a latency/bandwidth network, and
// per-node resource meters mirroring what the paper measures on the master
// daemon (CPU time, virtual memory, resident memory, concurrent sockets).
//
// The paper evaluates on Tianhe-2A (16,384 nodes) and NG-Tianhe (20K+
// nodes); this package is the simulated stand-in for those machines (see
// DESIGN.md, "Substitutions").
//
// # Cells
//
// Every node is homed on a cell: one simnet engine that owns the node's
// meter and every event touching it. New builds a one-cell cluster on a
// caller's engine; NewSharded builds rack cells on a simnet.ShardGroup,
// so one logical simulation spans several engines (and, through the
// group's worker knob, several cores). Both are the same Cluster type
// with the same wire and fault model; a one-cell cluster simply never
// sends across cells.
//
// Fault state (fail-stop flags, gray factors, link degradation,
// partitions) is replicated per cell: the control API applies the same
// flip to every replica at the same virtual instant, so any cell answers
// "is this path broken?" locally, with no cross-cell reads, and every
// replica agrees whenever a message consults it.
//
// Determinism: all state changes (failures, recoveries, meter charges)
// happen inside events on the owning cell's engine, and network jitter
// draws from the cells' labeled RNG streams — same seed, same trace, at
// any worker count.
package cluster

import (
	"fmt"
	"time"

	"eslurm/internal/simnet"
)

// NodeID identifies a node within a Cluster. IDs are dense, starting at 0.
type NodeID int

// Role classifies a node's function in the RM architecture.
type Role int

const (
	// RoleCompute nodes run user jobs (the paper's "slave" nodes).
	RoleCompute Role = iota
	// RoleSatellite nodes relay communication between master and compute
	// nodes. They hold no persistent system state.
	RoleSatellite
	// RoleMaster hosts the RM control daemon (slurmctld equivalent).
	RoleMaster
)

func (r Role) String() string {
	switch r {
	case RoleCompute:
		return "compute"
	case RoleSatellite:
		return "satellite"
	case RoleMaster:
		return "master"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Node is one machine in the simulated cluster.
type Node struct {
	ID   NodeID
	Role Role
	// Cell is the node's home cell: only that cell's events may touch
	// the node's meter or model state.
	Cell int
	// Meter accumulates this node's daemon resources on its home cell's
	// engine.
	Meter ResourceMeter

	ctl *replica // the master's cell replica, which Failed reads
	// onFail callbacks fire on the node's home cell when it transitions
	// healthy → failed.
	onFail []func()
}

// Failed reports whether the node is currently down, as the master's
// cell sees it. On a multi-cell cluster call it from the master's cell
// or while the group is idle; code on other cells uses
// Cluster.FailedOn.
func (n *Node) Failed() bool { return n.ctl.failed[n.ID] }

// Cluster is a set of nodes homed on one or more engine cells plus the
// network connecting them.
type Cluster struct {
	// Engine is the master's cell engine — on a one-cell cluster, the
	// only engine.
	Engine *simnet.Engine
	Net    *Network

	nodes []*Node
	cells []*cell
	ctl   *cell              // the master's cell
	group *simnet.ShardGroup // nil on a one-cell cluster built by New
}

// Config sizes a cluster. The default latency parameters approximate the
// paper's proprietary interconnect (25 Gbps per lane; sub-millisecond
// one-hop latency) at the granularity the experiments are sensitive to.
type Config struct {
	Computes   int
	Satellites int
	// Network overrides; zero values take defaults (see DefaultNetConfig).
	Net NetConfig
}

// ShardConfig sizes a cluster spread over rack cells.
type ShardConfig struct {
	Computes   int
	Satellites int
	// Net overrides; zero values take defaults. The effective Latency
	// must be positive — it is the conservative lookahead bound, and a
	// latency-free network admits no concurrent window.
	Net NetConfig
	// Cells is the number of engine cells (the fixed logical partition);
	// values below 1 mean one cell. CellOf maps each node to its home
	// cell in [0, Cells); nil homes everything on cell 0. The mapping
	// must depend only on the model (IDs, roles, topology), never on the
	// worker count, or shard invariance is forfeit.
	Cells  int
	CellOf func(id NodeID, role Role) int
	// Workers is the goroutine count executing cells (clamped to
	// [1, Cells] by the group); it does not affect results.
	Workers int
	// Seed is the root seed; per-cell engine seeds derive from it.
	Seed int64
}

// New builds a one-cell cluster on e with one master node (ID 0),
// Config.Satellites satellite nodes (IDs 1..S) and Config.Computes
// compute nodes after them.
func New(e *simnet.Engine, cfg Config) *Cluster {
	return build([]*simnet.Engine{e}, nil, cfg.Satellites, cfg.Computes, nil, cfg.Net)
}

// NewSharded builds a cluster of the same shape as New whose nodes are
// homed on the cells of a fresh simnet.ShardGroup by cfg.CellOf.
func NewSharded(cfg ShardConfig) *Cluster {
	net := cfg.Net.withDefaults()
	if net.Latency <= 0 {
		panic("cluster: sharded execution needs a positive link latency (it is the lookahead bound)")
	}
	cells := max(cfg.Cells, 1)
	g := simnet.NewShardGroup(cfg.Seed, cells, net.Latency, cfg.Workers)
	engines := make([]*simnet.Engine, cells)
	for i := range engines {
		engines[i] = g.Cell(i)
	}
	return build(engines, g, cfg.Satellites, cfg.Computes, cfg.CellOf, cfg.Net)
}

func build(engines []*simnet.Engine, g *simnet.ShardGroup, satellites, computes int, cellOf func(NodeID, Role) int, net NetConfig) *Cluster {
	// The nodes live in one block: a cluster is built per simulation, and
	// one allocation instead of one per node keeps construction cheap.
	block := make([]Node, 1+satellites+computes)
	c := &Cluster{nodes: make([]*Node, 0, len(block)), group: g}
	for i, e := range engines {
		c.cells = append(c.cells, newCell(i, e, len(block)))
	}
	add := func(role Role) {
		n := &block[len(c.nodes)]
		n.ID, n.Role = NodeID(len(c.nodes)), role
		if cellOf != nil {
			n.Cell = cellOf(n.ID, role)
			if n.Cell < 0 || n.Cell >= len(engines) {
				panic("cluster: CellOf returned a cell out of range")
			}
		}
		n.Meter.engine = engines[n.Cell]
		c.nodes = append(c.nodes, n)
	}
	add(RoleMaster)
	for i := 0; i < satellites; i++ {
		add(RoleSatellite)
	}
	for i := 0; i < computes; i++ {
		add(RoleCompute)
	}
	c.ctl = c.cells[c.nodes[0].Cell]
	c.Engine = c.ctl.e
	for _, n := range c.nodes {
		n.ctl = &c.ctl.rep
	}
	c.Net = &Network{c: c, cfg: net.withDefaults()}
	for _, cl := range c.cells {
		cl.n = c.Net
	}
	return c
}

// Master returns the master node (always ID 0).
func (c *Cluster) Master() *Node { return c.nodes[0] }

// Node returns the node with the given ID. It panics on out-of-range IDs:
// that is always a programming error in an experiment driver.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Size returns the total number of nodes, including master and satellites.
func (c *Cluster) Size() int { return len(c.nodes) }

// Cells returns the number of engine cells (1 for a cluster built by New).
func (c *Cluster) Cells() int { return len(c.cells) }

// CellOf returns a node's home cell.
func (c *Cluster) CellOf(id NodeID) int { return c.nodes[id].Cell }

// EngineOf returns the engine of a node's home cell: the only engine that
// node's model events and meter may touch.
func (c *Cluster) EngineOf(id NodeID) *simnet.Engine { return c.cells[c.nodes[id].Cell].e }

// Group returns the shard group of a cluster built by NewSharded (run
// control, digests, merged metrics), or nil for a one-cell cluster.
func (c *Cluster) Group() *simnet.ShardGroup { return c.group }

// Now returns the master cell's virtual time.
func (c *Cluster) Now() time.Duration { return c.Engine.Now() }

// RunUntil executes every cell's events with time ≤ deadline: through
// the shard group's window protocol on a multi-cell cluster, on the one
// engine otherwise.
func (c *Cluster) RunUntil(deadline time.Duration) {
	if c.group != nil {
		c.group.RunUntil(deadline)
		return
	}
	c.Engine.RunUntil(deadline)
}

// Satellites returns the IDs of all satellite nodes in ID order.
func (c *Cluster) Satellites() []NodeID {
	var out []NodeID
	for _, n := range c.nodes {
		if n.Role == RoleSatellite {
			out = append(out, n.ID)
		}
	}
	return out
}

// Computes returns the IDs of all compute nodes in ID order.
func (c *Cluster) Computes() []NodeID {
	out := make([]NodeID, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Role == RoleCompute {
			out = append(out, n.ID)
		}
	}
	return out
}

// FailedOn reports id's fail-stop state as seen from viewer's home cell
// replica — the read that is safe mid-run for code executing on that
// cell.
func (c *Cluster) FailedOn(viewer, id NodeID) bool {
	return c.cells[c.nodes[viewer].Cell].rep.failed[id]
}

// Fail marks a node as failed on every replica now. Message deliveries to
// it will time out at the sender. Failing an already-failed node is a
// no-op. On a multi-cell cluster call it only while the group is idle;
// ScheduleFail injects a failure mid-run.
func (c *Cluster) Fail(id NodeID) {
	if c.nodes[id].Failed() {
		return
	}
	for _, cl := range c.cells {
		cl.rep.failed[id] = true
	}
	c.notifyFail(id)
}

// Recover brings a failed node back on every replica (idle-only on a
// multi-cell cluster, like Fail).
func (c *Cluster) Recover(id NodeID) {
	for _, cl := range c.cells {
		cl.rep.failed[id] = false
	}
}

func (c *Cluster) notifyFail(id NodeID) {
	for _, fn := range c.nodes[id].onFail {
		fn()
	}
}

// OnFail registers a callback invoked on the node's home cell when the
// node fails. Used by the monitoring subsystem and by tests.
func (c *Cluster) OnFail(id NodeID, fn func()) {
	n := c.nodes[id]
	n.onFail = append(n.onFail, fn)
}

// FailedCount returns the number of currently failed nodes as the
// master's cell sees them.
func (c *Cluster) FailedCount() int {
	k := 0
	for _, f := range c.ctl.rep.failed {
		if f {
			k++
		}
	}
	return k
}

// ScheduleFail injects a fail-stop at virtual time at; if recover > 0
// the node comes back after that additional delay. Every cell flips its
// replica at the same instant. It returns immediately.
func (c *Cluster) ScheduleFail(id NodeID, at, recoverAfter time.Duration) {
	home := c.cells[c.nodes[id].Cell]
	for _, cl := range c.cells {
		cl := cl
		cl.e.Schedule(at, func() {
			if !cl.rep.failed[id] {
				cl.rep.failed[id] = true
				if cl == home {
					c.notifyFail(id)
				}
			}
			if recoverAfter > 0 {
				cl.e.After(recoverAfter, func() { cl.rep.failed[id] = false })
			}
		})
	}
}
