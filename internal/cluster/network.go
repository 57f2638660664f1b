package cluster

import (
	"math/rand"
	"time"
)

// Disabled is the sentinel for NetConfig duration fields whose zero value
// would otherwise be replaced by a default: an explicitly disabled cost.
// NetConfig{Jitter: cluster.Disabled} means "no jitter at all", whereas
// NetConfig{} (Jitter zero) takes the default — the Go zero value stays
// backward compatible and zero stays configurable.
const Disabled time.Duration = -1

// NetConfig parameterizes the latency model. The defaults approximate the
// Tianhe proprietary interconnect described in the paper's appendix (25
// Gbps per four-lane port, 100 Gbps one-port one-way) plus TCP/daemon
// software overheads, which dominate RM control traffic.
//
// The adversarial knobs (LossProb, DupProb) extend the clean fail-stop
// model: they default to zero (off) and draw from their own named simnet
// RNG streams only when enabled, so enabling one never perturbs the event
// trace of a configuration that has it off.
type NetConfig struct {
	// ConnectCost is the time to establish a TCP connection to a healthy
	// node (handshake + daemon accept). Set Disabled for a free connect.
	ConnectCost time.Duration
	// Latency is the one-way propagation + protocol latency per message.
	// Set Disabled for zero latency.
	Latency time.Duration
	// BandwidthBps is the per-link bandwidth in bytes per second used to
	// compute serialization delay for a message of a given size.
	BandwidthBps float64
	// ConnectTimeout is how long a sender waits before concluding the peer
	// is dead (per attempt). The comm layer retries on top of this.
	ConnectTimeout time.Duration
	// Jitter is the maximum uniform random extra latency per message,
	// modelling OS scheduling and congestion noise. Set Disabled for a
	// jitter-free network.
	Jitter time.Duration
	// LossProb is the probability a message vanishes in transit: the
	// sender gets no acknowledgement and hits ConnectTimeout exactly as if
	// the peer were dead, so the comm retry policy is what recovers it.
	// Zero (the default) disables loss and its RNG stream.
	LossProb float64
	// DupProb is the probability a delivered message is delivered a second
	// time (retransmission after a lost ack). The duplicate arrives one
	// Latency after the original; receivers must be idempotent. Zero
	// disables duplication and its RNG stream.
	DupProb float64
}

// DefaultNetConfig returns the calibration used across the experiments.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		ConnectCost:    300 * time.Microsecond,
		Latency:        150 * time.Microsecond,
		BandwidthBps:   1.5e9, // ~12 Gbps effective for control-plane TCP
		ConnectTimeout: 1 * time.Second,
		Jitter:         100 * time.Microsecond,
	}
}

// normDuration maps the zero value to the default and the Disabled
// sentinel (any negative) to an explicit zero.
func normDuration(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

func (c NetConfig) withDefaults() NetConfig {
	d := DefaultNetConfig()
	c.ConnectCost = normDuration(c.ConnectCost, d.ConnectCost)
	c.Latency = normDuration(c.Latency, d.Latency)
	c.ConnectTimeout = normDuration(c.ConnectTimeout, d.ConnectTimeout)
	c.Jitter = normDuration(c.Jitter, d.Jitter)
	if c.BandwidthBps <= 0 {
		// Zero bandwidth would make every transfer infinite; there is no
		// meaningful "explicit zero" here, so non-positive takes the default.
		c.BandwidthBps = d.BandwidthBps
	}
	if c.LossProb < 0 {
		c.LossProb = 0
	}
	if c.LossProb > 1 {
		c.LossProb = 1
	}
	if c.DupProb < 0 {
		c.DupProb = 0
	}
	if c.DupProb > 1 {
		c.DupProb = 1
	}
	return c
}

// linkKey identifies a directed link for per-link degradation.
type linkKey struct{ from, to NodeID }

// partition is one active network partition: messages between a member
// and a non-member fail in both directions until the partition heals.
type partition struct {
	member map[NodeID]bool
}

// Network delivers messages between nodes of one cluster with a
// latency+bandwidth cost model and an adversarial fault model layered on
// top of fail-stop semantics:
//
//   - a message to a failed node costs the sender the connect timeout and
//     reports failure (fail-stop, as before);
//   - a message crossing an active partition boundary behaves exactly like
//     a message to a dead node — the sender cannot distinguish the two;
//   - a lost message (LossProb) silently vanishes and the sender times out;
//   - a duplicated message (DupProb) is delivered twice;
//   - a gray node (SetGray) is alive but slow: connect and transfer costs
//     to and from it are inflated by its factor;
//   - a degraded link (SetLinkDegrade) multiplies that link's transfer time.
//
// All randomness is drawn from named simnet streams, so any configuration
// is bit-deterministic per seed, and disabled features draw nothing.
type Network struct {
	cluster *Cluster
	cfg     NetConfig
	rng     *rand.Rand

	lossRng *rand.Rand // derived lazily, only when LossProb > 0
	dupRng  *rand.Rand // derived lazily, only when DupProb > 0

	gray       map[NodeID]float64
	degrade    map[linkKey]float64
	partitions []*partition

	deliverObs func(from, to NodeID, size int)

	free []*message // messages whose events have all fired
}

func newNetwork(c *Cluster, cfg NetConfig) *Network {
	return &Network{cluster: c, cfg: cfg.withDefaults(), rng: c.Engine.Rand("cluster/network")}
}

// Config returns the effective network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// OnDeliver registers an observer invoked at the virtual instant of every
// successful delivery (duplicates included), before the receiver's
// callback runs. One observer at a time; nil clears. The observer must
// not schedule events, so registering one never perturbs the event trace.
func (n *Network) OnDeliver(fn func(from, to NodeID, size int)) { n.deliverObs = fn }

// SetGray marks a node as a gray failure: alive, but every connect and
// transfer involving it is multiplied by factor (> 1). A factor <= 1
// clears the mark.
func (n *Network) SetGray(id NodeID, factor float64) {
	if factor <= 1 {
		delete(n.gray, id)
		return
	}
	if n.gray == nil {
		n.gray = make(map[NodeID]float64)
	}
	n.gray[id] = factor
}

// ClearGray removes a node's gray-failure mark.
func (n *Network) ClearGray(id NodeID) { delete(n.gray, id) }

// GrayFactor returns the node's slowdown factor (1 when healthy).
func (n *Network) GrayFactor(id NodeID) float64 {
	if f, ok := n.gray[id]; ok {
		return f
	}
	return 1
}

// GrayCount returns the number of currently gray nodes.
func (n *Network) GrayCount() int { return len(n.gray) }

// SetLinkDegrade multiplies the directed link's transfer time by factor
// (> 1). A factor <= 1 restores the link.
func (n *Network) SetLinkDegrade(from, to NodeID, factor float64) {
	k := linkKey{from, to}
	if factor <= 1 {
		delete(n.degrade, k)
		return
	}
	if n.degrade == nil {
		n.degrade = make(map[linkKey]float64)
	}
	n.degrade[k] = factor
}

// Partition severs the member set from the rest of the cluster starting
// now: messages between a member and a non-member fail with the connect
// timeout in both directions; traffic within either side is unaffected.
// If heal > 0 the partition heals after that long; otherwise it stays
// until HealAll. Partitions compose: a link is severed if any active
// partition separates its endpoints.
func (n *Network) Partition(members []NodeID, heal time.Duration) {
	p := &partition{member: make(map[NodeID]bool, len(members))}
	for _, id := range members {
		p.member[id] = true
	}
	n.partitions = append(n.partitions, p)
	if heal > 0 {
		n.cluster.Engine.After(heal, func() { n.healOne(p) })
	}
}

func (n *Network) healOne(p *partition) {
	for i, q := range n.partitions {
		if q == p {
			n.partitions = append(n.partitions[:i], n.partitions[i+1:]...)
			return
		}
	}
}

// HealAll removes every active partition.
func (n *Network) HealAll() { n.partitions = nil }

// PartitionCount returns the number of active partitions.
func (n *Network) PartitionCount() int { return len(n.partitions) }

// Severed reports whether an active partition separates the two nodes.
func (n *Network) Severed(from, to NodeID) bool {
	for _, p := range n.partitions {
		if p.member[from] != p.member[to] {
			return true
		}
	}
	return false
}

// TransferTime returns the modelled one-way delivery time for a healthy
// message of size bytes, excluding jitter, connection setup and any
// gray/degradation multipliers.
func (n *Network) TransferTime(size int) time.Duration {
	ser := time.Duration(float64(size) / n.cfg.BandwidthBps * float64(time.Second))
	return n.cfg.Latency + ser
}

// pathFactor returns the multiplier gray endpoints and link degradation
// impose on the from→to transfer.
func (n *Network) pathFactor(from, to NodeID) float64 {
	f := 1.0
	if g := n.GrayFactor(from); g > f {
		f = g
	}
	if g := n.GrayFactor(to); g > f {
		f = g
	}
	if d, ok := n.degrade[linkKey{from, to}]; ok {
		f *= d
	}
	return f
}

// scale multiplies a duration by a factor, avoiding the float round trip
// in the common factor==1 case.
func scale(d time.Duration, f float64) time.Duration {
	if f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// lost draws the in-transit loss coin (only when loss is enabled).
func (n *Network) lost() bool {
	if n.cfg.LossProb <= 0 {
		return false
	}
	if n.lossRng == nil {
		n.lossRng = n.cluster.Engine.Rand("cluster/network/loss")
	}
	return n.lossRng.Float64() < n.cfg.LossProb
}

// duplicated draws the duplication coin (only when duplication is enabled).
func (n *Network) duplicated() bool {
	if n.cfg.DupProb <= 0 {
		return false
	}
	if n.dupRng == nil {
		n.dupRng = n.cluster.Engine.Rand("cluster/network/dup")
	}
	return n.dupRng.Float64() < n.cfg.DupProb
}

// unreachable reports whether a message from→to cannot be delivered right
// now: the destination is dead or a partition separates the endpoints.
func (n *Network) unreachable(from, to NodeID) bool {
	return n.cluster.Node(to).failed || n.Severed(from, to)
}

// Receiver is told how one message ended. Delivered runs at the delivery
// instant (twice under duplication — receivers dedup); Failed runs when
// the sender gives up on it.
type Receiver interface {
	Delivered()
	Failed()
}

// Send models one message from -> to carrying size bytes.
//
// If the destination is reachable at delivery time, r.Delivered fires at
// the delivery instant (twice under duplication — receivers dedup). If
// the destination is failed or partitioned away (at send or delivery
// time), or the message is lost in transit, r.Failed fires after the
// connect timeout — the sender blocks for the timeout, exactly the
// behaviour that makes failed interior tree nodes expensive (Section IV).
// r may be nil. Sockets and message counters on both meters are
// maintained here so every RM model accounts traffic uniformly.
func (n *Network) Send(from, to NodeID, size int, r Receiver) {
	n.send(from, to, size, r, false)
}

// SendPersistent models traffic over an already-established long-lived
// connection (e.g. SGE's persistent execd channels): no connect cost and no
// per-message socket churn — the caller is responsible for having opened
// the socket once. The adversarial model (loss, duplication, partitions,
// gray slowdown) applies exactly as in Send, except that a destination
// found unreachable at delivery time fails the message at once: there is
// no connect to time out.
func (n *Network) SendPersistent(from, to NodeID, size int, r Receiver) {
	n.send(from, to, size, r, true)
}

// Message event op codes: a message is the simnet.Handler of every event
// it schedules.
const (
	opArrive   uint8 = iota // the payload reaches the destination
	opFail                  // the sender's timeout expires
	opCloseDst              // the receiver's accept socket closes
	opDup                   // a duplicate of the payload lands
)

// message is one in-flight message. It is pooled per Network: pending
// counts its scheduled events, and the last one to fire returns it.
type message struct {
	n          *Network
	src, dst   *Node
	size       int
	d          time.Duration // transfer time drawn at send
	persistent bool
	r          Receiver
	pending    int
}

func (n *Network) send(from, to NodeID, size int, r Receiver, persistent bool) {
	m := n.newMessage()
	m.src, m.dst, m.size, m.r, m.persistent = n.cluster.Node(from), n.cluster.Node(to), size, r, persistent

	m.src.Meter.CountMessage(true, size)
	if !persistent {
		m.src.Meter.OpenSocket()
	}
	if n.unreachable(from, to) || n.lost() {
		m.after(n.cfg.ConnectTimeout, opFail)
		return
	}
	d := n.TransferTime(size)
	if persistent {
		d = scale(d, n.pathFactor(from, to))
	} else {
		factor := n.pathFactor(from, to)
		d = scale(n.cfg.ConnectCost, factor) + scale(d, factor)
	}
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter) + 1))
	}
	m.d = d
	m.after(d, opArrive)
}

func (n *Network) newMessage() *message {
	if k := len(n.free); k > 0 {
		m := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return m
	}
	return &message{n: n}
}

// after schedules one of the message's events.
func (m *message) after(d time.Duration, op uint8) {
	m.pending++
	m.n.cluster.Engine.AfterHandler(d, m, op)
}

// Fire implements simnet.Handler.
func (m *message) Fire(op uint8) {
	m.pending--
	switch op {
	case opArrive:
		m.arrive()
	case opFail:
		if !m.persistent {
			m.src.Meter.CloseSocket()
		}
		if m.r != nil {
			m.r.Failed()
		}
	case opCloseDst:
		m.dst.Meter.CloseSocket()
	case opDup:
		// Retransmission after a lost ack: the same payload lands a second
		// time one latency after the original. No socket churn — the
		// duplicate rides the same accept — but the receiver's message
		// counter and callback both fire again.
		if !m.n.unreachable(m.src.ID, m.dst.ID) {
			m.deliver()
		}
	}
	if m.pending == 0 {
		*m = message{n: m.n}
		m.n.free = append(m.n.free, m)
	}
}

func (m *message) arrive() {
	n := m.n
	// The destination may have failed — or been partitioned away — while
	// the message was in flight.
	if n.unreachable(m.src.ID, m.dst.ID) {
		if m.persistent {
			if m.r != nil {
				m.r.Failed()
			}
			return
		}
		// Remaining time until the sender's timeout expires.
		m.after(n.cfg.ConnectTimeout-m.d, opFail)
		return
	}
	if !m.persistent {
		m.dst.Meter.OpenSocket()
		m.src.Meter.CloseSocket()
		// The receiving daemon holds its accept socket briefly while
		// processing.
		m.after(n.cfg.Latency, opCloseDst)
	}
	m.deliver()
	if n.duplicated() {
		m.after(n.cfg.Latency, opDup)
	}
}

// deliver counts one arrival of the payload and tells the observer and
// the receiver.
func (m *message) deliver() {
	m.dst.Meter.CountMessage(false, m.size)
	if m.n.deliverObs != nil {
		m.n.deliverObs(m.src.ID, m.dst.ID, m.size)
	}
	if m.r != nil {
		m.r.Delivered()
	}
}
