package cluster

import (
	"math/rand"
	"time"

	"eslurm/internal/simnet"
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
// Its member set is shared read-only by every replica.
type partition struct {
	member map[NodeID]bool
}

func newPartition(members []NodeID) *partition {
	p := &partition{member: make(map[NodeID]bool, len(members))}
	for _, id := range members {
		p.member[id] = true
	}
	return p
}

// replica is one cell's copy of the fault state. Only the cell's own
// events (or the idle coordinator) read or write it.
type replica struct {
	failed     []bool
	gray       map[NodeID]float64
	degrade    map[linkKey]float64
	partitions []*partition
}

func (r *replica) setGray(id NodeID, factor float64) {
	if factor <= 1 {
		delete(r.gray, id)
		return
	}
	if r.gray == nil {
		r.gray = make(map[NodeID]float64)
	}
	r.gray[id] = factor
}

func (r *replica) setDegrade(k linkKey, factor float64) {
	if factor <= 1 {
		delete(r.degrade, k)
		return
	}
	if r.degrade == nil {
		r.degrade = make(map[linkKey]float64)
	}
	r.degrade[k] = factor
}

func (r *replica) heal(p *partition) {
	for i, q := range r.partitions {
		if q == p {
			r.partitions = append(r.partitions[:i], r.partitions[i+1:]...)
			return
		}
	}
}

func (r *replica) severed(from, to NodeID) bool {
	for _, p := range r.partitions {
		if p.member[from] != p.member[to] {
			return true
		}
	}
	return false
}

// unreachable reports whether a message from→to cannot be delivered right
// now: the destination is dead or a partition separates the endpoints.
func (r *replica) unreachable(from, to NodeID) bool {
	return r.failed[to] || r.severed(from, to)
}

func (r *replica) grayFactor(id NodeID) float64 {
	if f, ok := r.gray[id]; ok {
		return f
	}
	return 1
}

// pathFactor returns the multiplier gray endpoints and link degradation
// impose on the from→to transfer.
func (r *replica) pathFactor(from, to NodeID) float64 {
	f := 1.0
	if g := r.grayFactor(from); g > f {
		f = g
	}
	if g := r.grayFactor(to); g > f {
		f = g
	}
	if d, ok := r.degrade[linkKey{from, to}]; ok {
		f *= d
	}
	return f
}

// cell is one engine of the cluster: its fault replica, its network RNG
// streams and its message pool. Only the cell's own events touch it.
type cell struct {
	idx int
	e   *simnet.Engine
	n   *Network
	rep replica

	rng     *rand.Rand
	lossRng *rand.Rand // derived lazily, only when LossProb > 0
	dupRng  *rand.Rand // derived lazily, only when DupProb > 0

	free []*message // messages whose events have all fired
	// parked holds cross-cell messages nobody awaits an answer for, in
	// FIFO order from parkHead; each may be reused from its until on.
	parked   []parkedMessage
	parkHead int
}

// parkedMessage is a cross-cell message whose last touch by the
// destination's cell is its landing. Once the sender's cell reaches
// until — one link latency after the landing, hence past the window
// barrier that follows it — nothing else can touch the message.
type parkedMessage struct {
	m     *message
	until time.Duration
}

func newCell(idx int, e *simnet.Engine, nodes int) *cell {
	return &cell{idx: idx, e: e, rep: replica{failed: make([]bool, nodes)}, rng: e.Rand("cluster/network")}
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
// All randomness is drawn from named simnet streams of the sending cell,
// so any configuration is bit-deterministic per seed, and disabled
// features draw nothing.
//
// The immediate setters (SetGray, SetLinkDegrade, Partition, HealAll)
// flip every replica at once: call them from an event of a one-cell
// cluster, or while a multi-cell cluster's group is idle. The Schedule
// variants pre-schedule the flip on every cell and work on any layout.
type Network struct {
	c   *Cluster
	cfg NetConfig

	deliverObs func(from, to NodeID, size int)
}

// Config returns the effective network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// OnDeliver registers an observer invoked on the destination's cell at
// the virtual instant of every successful delivery (duplicates
// included), before the receiver's callback runs. One observer at a
// time; nil clears. The observer must not schedule events, so
// registering one never perturbs the event trace.
func (n *Network) OnDeliver(fn func(from, to NodeID, size int)) { n.deliverObs = fn }

// SetGray marks a node as a gray failure: alive, but every connect and
// transfer involving it is multiplied by factor (> 1). A factor <= 1
// clears the mark.
func (n *Network) SetGray(id NodeID, factor float64) {
	for _, cl := range n.c.cells {
		cl.rep.setGray(id, factor)
	}
}

// ClearGray removes a node's gray-failure mark.
func (n *Network) ClearGray(id NodeID) { n.SetGray(id, 1) }

// ScheduleGray marks a node gray (factor > 1) at virtual time at on
// every cell; if clearAfter is positive the mark clears that much later.
// A factor <= 1 clears instead.
func (n *Network) ScheduleGray(id NodeID, factor float64, at, clearAfter time.Duration) {
	for _, cl := range n.c.cells {
		rep := &cl.rep
		cl.e.Schedule(at, func() { rep.setGray(id, factor) })
		if clearAfter > 0 && factor > 1 {
			cl.e.Schedule(at+clearAfter, func() { rep.setGray(id, 1) })
		}
	}
}

// GrayFactor returns the node's slowdown factor (1 when healthy) as the
// master's cell sees it.
func (n *Network) GrayFactor(id NodeID) float64 { return n.c.ctl.rep.grayFactor(id) }

// GrayFactorOn returns id's slowdown factor as seen from viewer's home
// cell replica — the read that is safe mid-run for code on that cell.
func (n *Network) GrayFactorOn(viewer, id NodeID) float64 {
	return n.c.cells[n.c.nodes[viewer].Cell].rep.grayFactor(id)
}

// GrayCount returns the number of currently gray nodes.
func (n *Network) GrayCount() int { return len(n.c.ctl.rep.gray) }

// SetLinkDegrade multiplies the directed link's transfer time by factor
// (> 1). A factor <= 1 restores the link.
func (n *Network) SetLinkDegrade(from, to NodeID, factor float64) {
	for _, cl := range n.c.cells {
		cl.rep.setDegrade(linkKey{from, to}, factor)
	}
}

// ScheduleLinkDegrade applies SetLinkDegrade at virtual time at on every
// cell.
func (n *Network) ScheduleLinkDegrade(from, to NodeID, factor float64, at time.Duration) {
	for _, cl := range n.c.cells {
		rep := &cl.rep
		cl.e.Schedule(at, func() { rep.setDegrade(linkKey{from, to}, factor) })
	}
}

// Partition severs the member set from the rest of the cluster starting
// now: messages between a member and a non-member fail with the connect
// timeout in both directions; traffic within either side is unaffected.
// If heal > 0 the partition heals after that long; otherwise it stays
// until HealAll. Partitions compose: a link is severed if any active
// partition separates its endpoints.
func (n *Network) Partition(members []NodeID, heal time.Duration) {
	p := newPartition(members)
	for _, cl := range n.c.cells {
		cl.partition(p, heal)
	}
}

// SchedulePartition applies Partition at virtual time at on every cell.
func (n *Network) SchedulePartition(members []NodeID, at, heal time.Duration) {
	p := newPartition(members)
	for _, cl := range n.c.cells {
		cl := cl
		cl.e.Schedule(at, func() { cl.partition(p, heal) })
	}
}

func (cl *cell) partition(p *partition, heal time.Duration) {
	cl.rep.partitions = append(cl.rep.partitions, p)
	if heal > 0 {
		cl.e.After(heal, func() { cl.rep.heal(p) })
	}
}

// HealAll removes every active partition.
func (n *Network) HealAll() {
	for _, cl := range n.c.cells {
		cl.rep.partitions = nil
	}
}

// PartitionCount returns the number of active partitions.
func (n *Network) PartitionCount() int { return len(n.c.ctl.rep.partitions) }

// Severed reports whether an active partition separates the two nodes.
func (n *Network) Severed(from, to NodeID) bool { return n.c.ctl.rep.severed(from, to) }

// TransferTime returns the modelled one-way delivery time for a healthy
// message of size bytes, excluding jitter, connection setup and any
// gray/degradation multipliers.
func (n *Network) TransferTime(size int) time.Duration {
	ser := time.Duration(float64(size) / n.cfg.BandwidthBps * float64(time.Second))
	return n.cfg.Latency + ser
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
func (n *Network) lost(cl *cell) bool {
	if n.cfg.LossProb <= 0 {
		return false
	}
	if cl.lossRng == nil {
		cl.lossRng = cl.e.Rand("cluster/network/loss")
	}
	return cl.lossRng.Float64() < n.cfg.LossProb
}

// duplicated draws the duplication coin (only when duplication is enabled).
func (n *Network) duplicated(cl *cell) bool {
	if n.cfg.DupProb <= 0 {
		return false
	}
	if cl.dupRng == nil {
		cl.dupRng = cl.e.Rand("cluster/network/dup")
	}
	return cl.dupRng.Float64() < n.cfg.DupProb
}

// Post runs h.Fire(op) on to's home cell one link latency after from's
// cell's now: the deterministic cross-cell channel for model
// notifications that ride a message (a relay telling the origin's
// tracker how a link ended). from and to must live on different cells.
func (n *Network) Post(from, to NodeID, h simnet.Handler, op uint8) {
	src, dst := n.c.nodes[from].Cell, n.c.nodes[to].Cell
	n.c.group.Send(src, dst, n.c.cells[src].e.Now()+n.cfg.Latency, h, op)
}

// Receiver is told how one message ended.
//
// Delivered runs on the sender's cell when the sender learns the payload
// landed, and Failed when the sender gives up on the message. Within a
// cell the sender learns at the delivery instant itself (twice under
// duplication — receivers dedup). Across cells it learns from an ack one
// link latency after the delivery, and Arrived runs on the destination's
// cell at each landing of the payload (duplicates included), so a relay
// can forward before the sender hears back. Arrived is never called for
// a same-cell message: there Delivered marks the landing.
type Receiver interface {
	Arrived()
	Delivered()
	Failed()
}

// Send models one message from -> to carrying size bytes, invoked from
// an event on the sender's home cell (or while the cluster is idle).
//
// If the destination is reachable at delivery time, the receiver hears
// of the delivery (see Receiver). If the destination is failed or
// partitioned away at send time, or the message is lost in transit,
// r.Failed fires after the connect timeout — the sender blocks for the
// timeout, exactly the behaviour that makes failed interior tree nodes
// expensive (Section IV). A destination found unreachable at delivery
// time fails the message at the sender's timeout; across cells, at the
// later of that timeout and the instant a nack can travel back. r may be
// nil. Sockets and message counters on both meters are maintained here
// so every RM model accounts traffic uniformly.
//
// A cross-cell send draws its jitter, loss and duplication coins at send
// time on the sender's cell, and the sender closes its connect socket at
// the delivery instant without waiting for the ack.
func (n *Network) Send(from, to NodeID, size int, r Receiver) {
	n.send(from, to, size, r, false)
}

// SendPersistent models traffic over an already-established long-lived
// connection (e.g. SGE's persistent execd channels): no connect cost and no
// per-message socket churn — the caller is responsible for having opened
// the socket once. The adversarial model (loss, duplication, partitions,
// gray slowdown) applies exactly as in Send, except that a same-cell
// destination found unreachable at delivery time fails the message at
// once: there is no connect to time out.
func (n *Network) SendPersistent(from, to NodeID, size int, r Receiver) {
	n.send(from, to, size, r, true)
}

// Message event op codes: a message is the simnet.Handler of every event
// it schedules.
const (
	opArrive   uint8 = iota // same cell: the payload reaches the destination
	opFail                  // the sender's timeout expires
	opCloseDst              // the receiver's accept socket closes
	opDup                   // same cell: a duplicate of the payload lands
	opLand                  // cross-cell: the payload lands on the destination's cell
	opEcho                  // cross-cell: a duplicate lands on the destination's cell
	opCloseSrc              // cross-cell: the sender closes its connect socket
	opAck                   // cross-cell: the ack reaches the sender
	opNack                  // cross-cell: the nack reaches the sender
)

// message is one in-flight message, pooled per cell. pending counts the
// events it has scheduled on its own cell; the last one to fire returns
// it to that cell's pool. A cross-cell message belongs to the sender's
// cell: its landing runs on the destination's cell but is answered by
// exactly one ack or nack back on the sender's, which pending counts, so
// the destination never touches the message after that answer is sent.
// A cross-cell message without a receiver gets no answer; it parks
// instead (see parkedMessage). The destination's later events (closing
// its socket, a duplicate) ride a second message from the destination
// cell's own pool.
type message struct {
	cell     *cell
	src, dst *Node
	size     int
	d        time.Duration // transfer time drawn at send
	// until is, across cells, when the sender's timeout expires — or,
	// without a receiver, when the parked message may be reused.
	until      time.Duration
	r          Receiver
	pending    int
	persistent bool
	dup        bool // cross-cell: the duplication coin drawn at send
}

func (n *Network) send(from, to NodeID, size int, r Receiver, persistent bool) {
	src, dst := n.c.nodes[from], n.c.nodes[to]
	cl := n.c.cells[src.Cell]
	m := cl.newMessage()
	m.src, m.dst, m.size, m.r, m.persistent = src, dst, size, r, persistent

	src.Meter.CountMessage(true, size)
	if !persistent {
		src.Meter.OpenSocket()
	}
	if cl.rep.unreachable(from, to) || n.lost(cl) {
		m.after(n.cfg.ConnectTimeout, opFail)
		return
	}
	d := n.TransferTime(size)
	factor := cl.rep.pathFactor(from, to)
	if persistent {
		d = scale(d, factor)
	} else {
		d = scale(n.cfg.ConnectCost, factor) + scale(d, factor)
	}
	if n.cfg.Jitter > 0 {
		d += time.Duration(cl.rng.Int63n(int64(n.cfg.Jitter) + 1))
	}
	m.d = d
	if dst.Cell == src.Cell {
		m.after(d, opArrive)
		return
	}
	m.dup = n.duplicated(cl)
	now := cl.e.Now()
	m.until = now + n.cfg.ConnectTimeout
	if !persistent {
		m.after(d, opCloseSrc)
	}
	if r != nil {
		m.pending++ // the ack or nack
	} else {
		m.until = now + d + n.cfg.Latency
		if m.pending == 0 {
			cl.park(m)
		}
	}
	//eslurmlint:ignore lookahead d = scale(TransferTime(size), pathFactor) with pathFactor >= 1 and TransferTime >= cfg.Latency = the group's lookahead, so now+d is bounded by a model invariant the prover's addend algebra cannot see through scale()
	n.c.group.Send(src.Cell, dst.Cell, now+d, m, opLand)
}

func (cl *cell) newMessage() *message {
	if k := len(cl.free); k > 0 {
		m := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		return m
	}
	return cl.unpark()
}

// unpark reuses the oldest parked message once it is safe, or allocates.
func (cl *cell) unpark() *message {
	if cl.parkHead < len(cl.parked) && cl.parked[cl.parkHead].until <= cl.e.Now() {
		m := cl.parked[cl.parkHead].m
		cl.parked[cl.parkHead] = parkedMessage{}
		cl.parkHead++
		if cl.parkHead == len(cl.parked) {
			cl.parked, cl.parkHead = cl.parked[:0], 0
		}
		*m = message{cell: cl}
		return m
	}
	return &message{cell: cl}
}

// park queues a receiver-less cross-cell message for reuse once its
// landing is safely in the past. The queue's storage is reused the way
// comm's limiter reuses its wait line.
func (cl *cell) park(m *message) {
	if len(cl.parked) == cap(cl.parked) && 2*cl.parkHead >= len(cl.parked) {
		k := copy(cl.parked, cl.parked[cl.parkHead:])
		clear(cl.parked[k:])
		cl.parked, cl.parkHead = cl.parked[:k], 0
	}
	cl.parked = append(cl.parked, parkedMessage{m, m.until})
}

// after schedules one of the message's events on its own cell.
func (m *message) after(d time.Duration, op uint8) {
	m.pending++
	m.cell.e.AfterHandler(d, m, op)
}

// Fire implements simnet.Handler.
func (m *message) Fire(op uint8) {
	if op == opLand {
		// Runs on the destination's cell: pending belongs to the sender.
		m.land()
		return
	}
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
		if !m.cell.rep.unreachable(m.src.ID, m.dst.ID) {
			m.deliver()
		}
	case opEcho:
		if !m.cell.rep.unreachable(m.src.ID, m.dst.ID) {
			m.count()
			if m.r != nil {
				m.r.Arrived()
			}
		}
	case opCloseSrc:
		m.src.Meter.CloseSocket()
	case opAck:
		if m.r != nil {
			m.r.Delivered()
		}
	case opNack:
		if m.r != nil {
			m.r.Failed()
		}
	}
	if m.pending == 0 {
		if m.r == nil && m.until > 0 {
			m.cell.park(m)
			return
		}
		*m = message{cell: m.cell}
		m.cell.free = append(m.cell.free, m)
	}
}

func (m *message) arrive() {
	n := m.cell.n
	// The destination may have failed — or been partitioned away — while
	// the message was in flight.
	if m.cell.rep.unreachable(m.src.ID, m.dst.ID) {
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
	if n.duplicated(m.cell) {
		m.after(n.cfg.Latency, opDup)
	}
}

// land is a cross-cell message's delivery instant, on the destination's
// cell: it delivers (or not) and answers the sender one latency later.
func (m *message) land() {
	n := m.cell.n
	dcl := n.c.cells[m.dst.Cell]
	now := dcl.e.Now()
	L := n.cfg.Latency
	if dcl.rep.unreachable(m.src.ID, m.dst.ID) {
		if m.r == nil {
			return
		}
		// Nack: the sender learns at its timeout, or as soon as the nack
		// can travel back, whichever is later.
		failAt, timeoutAt := now+L, m.until
		if timeoutAt > failAt {
			failAt = timeoutAt
		}
		n.c.group.Send(dcl.idx, m.cell.idx, failAt, m, opNack)
		return
	}
	var leg *message // the destination's own follow-up events
	if !m.persistent || m.dup {
		leg = dcl.newMessage()
		leg.src, leg.dst, leg.size, leg.r = m.src, m.dst, m.size, m.r
	}
	m.count()
	if !m.persistent {
		m.dst.Meter.OpenSocket()
		leg.after(L, opCloseDst)
	}
	if m.r != nil {
		m.r.Arrived()
	}
	if m.dup {
		// Retransmission after a lost ack: the payload lands a second
		// time one latency later; no second ack, no socket churn.
		leg.after(L, opEcho)
	}
	if m.r != nil {
		n.c.group.Send(dcl.idx, m.cell.idx, now+L, m, opAck)
	}
}

// deliver counts one same-cell arrival of the payload and tells the
// receiver.
func (m *message) deliver() {
	m.count()
	if m.r != nil {
		m.r.Delivered()
	}
}

// count records one landing on the destination's meter and tells the
// observer.
func (m *message) count() {
	m.dst.Meter.CountMessage(false, m.size)
	if obs := m.cell.n.deliverObs; obs != nil {
		obs(m.src.ID, m.dst.ID, m.size)
	}
}
