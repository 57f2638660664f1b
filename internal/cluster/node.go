// Package cluster models the physical substrate the resource managers run
// on: nodes with roles and failure state, a latency/bandwidth network, and
// per-node resource meters mirroring what the paper measures on the master
// daemon (CPU time, virtual memory, resident memory, concurrent sockets).
//
// The paper evaluates on Tianhe-2A (16,384 nodes) and NG-Tianhe (20K+
// nodes); this package is the simulated stand-in for those machines (see
// DESIGN.md, "Substitutions").
//
// Determinism: all state changes (failures, recoveries, meter charges)
// happen inside events on the owning simnet engine, and network jitter
// draws from the engine's labeled RNG streams — same seed, same trace.
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
	ID    NodeID
	Role  Role
	Meter ResourceMeter

	failed bool
	// onFail callbacks fire when the node transitions healthy → failed.
	onFail []func()
}

// Failed reports whether the node is currently down.
func (n *Node) Failed() bool { return n.failed }

// Cluster is a set of nodes plus the network connecting them, driven by a
// shared simulation engine.
type Cluster struct {
	Engine *simnet.Engine
	Net    *Network

	nodes []*Node
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

// New builds a cluster with one master node (ID 0), Config.Satellites
// satellite nodes (IDs 1..S) and Config.Computes compute nodes after them.
func New(e *simnet.Engine, cfg Config) *Cluster {
	// The nodes live in one block: a cluster is built per simulation, and
	// one allocation instead of one per node keeps construction cheap.
	block := make([]Node, 1+cfg.Satellites+cfg.Computes)
	c := &Cluster{Engine: e, nodes: make([]*Node, 0, len(block))}
	add := func(role Role) *Node {
		n := &block[len(c.nodes)]
		n.ID, n.Role = NodeID(len(c.nodes)), role
		n.Meter.engine = e
		c.nodes = append(c.nodes, n)
		return n
	}
	add(RoleMaster)
	for i := 0; i < cfg.Satellites; i++ {
		add(RoleSatellite)
	}
	for i := 0; i < cfg.Computes; i++ {
		add(RoleCompute)
	}
	c.Net = newNetwork(c, cfg.Net)
	return c
}

// Master returns the master node (always ID 0).
func (c *Cluster) Master() *Node { return c.nodes[0] }

// Node returns the node with the given ID. It panics on out-of-range IDs:
// that is always a programming error in an experiment driver.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Size returns the total number of nodes, including master and satellites.
func (c *Cluster) Size() int { return len(c.nodes) }

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

// Fail marks a node as failed. Message deliveries to it will time out at
// the sender. Failing an already-failed node is a no-op.
func (c *Cluster) Fail(id NodeID) {
	n := c.nodes[id]
	if n.failed {
		return
	}
	n.failed = true
	for _, fn := range n.onFail {
		fn()
	}
}

// Recover brings a failed node back.
func (c *Cluster) Recover(id NodeID) { c.nodes[id].failed = false }

// OnFail registers a callback invoked when the node fails. Used by the
// monitoring subsystem and by tests.
func (c *Cluster) OnFail(id NodeID, fn func()) {
	n := c.nodes[id]
	n.onFail = append(n.onFail, fn)
}

// FailedCount returns the number of currently failed nodes.
func (c *Cluster) FailedCount() int {
	k := 0
	for _, n := range c.nodes {
		if n.failed {
			k++
		}
	}
	return k
}

// ScheduleFailure injects a fail-stop at virtual time at; if recover > 0 the
// node comes back after that additional delay. It returns immediately.
func (c *Cluster) ScheduleFailure(id NodeID, at, recoverAfter time.Duration) {
	c.Engine.Schedule(at, func() {
		c.Fail(id)
		if recoverAfter > 0 {
			c.Engine.After(recoverAfter, func() { c.Recover(id) })
		}
	})
}
