// Package comm implements the five communication structures compared in
// Section VII-A (Fig. 8b): ring, star, shared-memory, plain k-ary tree and
// the FP-Tree, all with identical fault-tolerance semantics so the
// comparison isolates the structure itself — exactly as the paper does
// ("we separate the communication structure from RM and reproduce various
// structures using the same techniques ... the number of retries for
// connection failure is set to three").
//
// A broadcast delivers one payload from an origin node to a set of target
// nodes. A delivery to a failed node costs the sender the connect timeout
// per attempt; after Retries attempts the target is declared unreachable.
// For relay structures (ring, tree) the fault-tolerance mechanism then
// re-routes around the failed node: the ring skips it, the tree parent
// adopts the failed child's subtree.
//
// Determinism: all delivery, retry and adoption logic runs as events on
// the broadcaster's engine, with backoff jitter drawn from labeled RNG
// streams — same seed, same delivery schedule. The comm.* spans and
// counters recorded through the obs layer are passive observations and
// never alter that schedule.
package comm

import (
	"math/rand"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/fptree"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
	"eslurm/internal/simnet"
)

// Result summarizes one completed broadcast.
type Result struct {
	// Delivered is the number of targets that received the payload.
	Delivered int
	// Resolved lists the delivered targets in resolution order. It is
	// populated only when Broadcaster.RecordResolved is set (the chaos
	// harness's exactly-once invariant needs identities, not just counts);
	// otherwise it stays nil and costs nothing.
	Resolved []cluster.NodeID
	// Unreachable lists targets that could not be reached after retries.
	Unreachable []cluster.NodeID
	// Elapsed is the time from broadcast start to the last delivery or
	// final failure determination, i.e. when the whole task resolves.
	Elapsed time.Duration
	// DeliveredElapsed is the time from broadcast start until the last
	// *successful* delivery — the "message broadcast time" the paper plots
	// (the message has reached every reachable node; timeout bookkeeping
	// for dead leaves may still be draining).
	DeliveredElapsed time.Duration
	// Messages is the total number of link messages sent, including
	// retries.
	Messages int
	// Retries is the number of retry attempts performed.
	Retries int
}

// RetryPolicy configures the per-link delivery retry loop. The zero
// policy is not meaningful; a nil *RetryPolicy on the Broadcaster selects
// the paper's fixed-count immediate-retry behaviour (Broadcaster.Retries
// attempts, no backoff), which is also what every existing experiment
// uses — the policy is strictly additive to the recorded traces.
type RetryPolicy struct {
	// MaxAttempts is the total number of connection attempts per link
	// (first try included). Values below 1 are treated as 1.
	MaxAttempts int
	// Backoff is the wait before the second attempt; each further attempt
	// multiplies it by BackoffFactor (default 2), capped at MaxBackoff.
	Backoff time.Duration
	// BackoffFactor is the exponential growth factor (values below 1 are
	// treated as the default 2).
	BackoffFactor float64
	// MaxBackoff caps the per-attempt backoff; zero means uncapped.
	MaxBackoff time.Duration
	// JitterFrac adds a uniform random extra delay in [0, JitterFrac ×
	// backoff) to each wait, drawn from the deterministic engine stream
	// "comm/retry" — same seed, same jitter, bit for bit.
	JitterFrac float64
	// Deadline bounds one delivery chain: once a chain (attempt +
	// backoffs) has been running this long, no further attempt is made
	// and the link resolves unreachable. Zero means no deadline.
	Deadline time.Duration
}

// backoff returns the wait before attempt number next (2-based: the wait
// scheduled after `next-1` failed attempts).
func (p *RetryPolicy) backoff(next int) time.Duration {
	d := p.Backoff
	f := p.BackoffFactor
	if f < 1 {
		f = 2
	}
	for i := 2; i < next; i++ {
		d = time.Duration(float64(d) * f)
		if p.MaxBackoff > 0 && d > p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// Broadcaster carries the shared mechanics (retry policy, per-message
// daemon costs, per-node connection limits) used by every structure.
//
// Every structure runs on any cluster layout. A delivery chain — every
// attempt, backoff and the outcome of one message from one sender to one
// target — lives on the sender's cell, a broadcast's tracker on the
// origin's cell, and a relay forwards on its own cell when the payload
// lands. A chain whose sender shares the origin's cell tells the tracker
// at once; any other tells it one link latency later over the cluster's
// cross-cell channel, so across cells Delivered and Elapsed include the
// ack and notification traffic a real master waits for. Within one cell
// the effects of a delivery run in this order: wire bookkeeping, limiter
// release, tracker resolve, relay hook, then the sender's continuation.
//
// Registry instruments and the retry RNG stream are per cell (fold them
// with ShardGroup.MergedMetrics). Spans land on the tracer of the cell
// running the instrumented code; a span whose logical parent lives on
// another cell records the "xparent" attribute (obs.CellRef) instead of
// a parent id, which critpath.FromCells resolves.
type Broadcaster struct {
	Cluster *cluster.Cluster
	// Retries is the number of connection attempts per link (paper: 3),
	// retried immediately. Ignored when Retry is set.
	Retries int
	// Retry, when non-nil, replaces the fixed immediate-retry loop with
	// exponential backoff, deterministic jitter and a per-chain deadline.
	Retry *RetryPolicy
	// SendOverhead is the sender-side CPU/dispatch cost to initiate one
	// message (serialization, thread hand-off).
	SendOverhead time.Duration
	// RelayOverhead is the receiver-side processing cost before a relay
	// node forwards to its children. Gray (alive-but-slow) relays pay
	// this inflated by their slowdown factor.
	RelayOverhead time.Duration
	// MaxConcurrent caps simultaneous outstanding connections per sender
	// (daemon thread-pool / fd limit). Star broadcasts from one origin are
	// throttled by this; tree fan-outs (≤ width) rarely are.
	MaxConcurrent int
	// PerNodeListBytes is the wire overhead per participant carried in
	// relay messages (the sub-nodelist).
	PerNodeListBytes int
	// RecordResolved, when set, makes every Result carry the delivered
	// targets' identities (Result.Resolved) for invariant checking.
	RecordResolved bool
	// OnResolve, when non-nil, is invoked exactly once per (broadcast,
	// target) on the origin's cell at the virtual instant the target
	// resolves there — delivered or declared unreachable. It must not
	// schedule events.
	OnResolve func(to cluster.NodeID, ok bool)
	// SpanParent, when non-zero, parents the *next* broadcast's root
	// span: the master sets it immediately before handing a sub-list to
	// a Structure (which builds its tracker synchronously), and the
	// tracker consumes and clears it. Zero — the default — makes
	// broadcast spans roots. The parent lives on the caller's cell,
	// which is the origin's.
	SpanParent obs.SpanID

	cells []cellState // by cell; each touched only by that cell
}

// cellState is a broadcaster's per-cell state.
type cellState struct {
	limiters map[cluster.NodeID]*limiter // by sender
	in       *instruments
	retryRng *rand.Rand
}

// instruments caches the broadcaster's registry handles so hot paths pay
// a field read, not a map lookup. Built on first use from the cell
// engine's registry (see simnet.Engine.Metrics).
type instruments struct {
	delivered   *obs.Counter
	unreachable *obs.Counter
	messages    *obs.Counter
	retries     *obs.Counter
	outstanding *obs.Gauge
	elapsed     *obs.Histogram
}

// broadcastElapsedBounds returns the comm.broadcast_elapsed_ns bucket
// edges: decades from 1 ms to 1000 s, covering a healthy in-rack delivery
// through a full retry-and-timeout drain. Built per call (once per
// Broadcaster cell) so the bounds are never package-level mutable state.
func broadcastElapsedBounds() []int64 {
	return []int64{
		int64(time.Millisecond),
		int64(10 * time.Millisecond),
		int64(100 * time.Millisecond),
		int64(time.Second),
		int64(10 * time.Second),
		int64(100 * time.Second),
		int64(1000 * time.Second),
	}
}

// cell returns the state of id's home cell.
func (b *Broadcaster) cell(id cluster.NodeID) *cellState {
	if len(b.cells) == 1 {
		return &b.cells[0]
	}
	return &b.cells[b.Cluster.CellOf(id)]
}

// inst returns the instruments of id's home cell.
func (b *Broadcaster) inst(id cluster.NodeID) *instruments {
	cs := b.cell(id)
	if cs.in == nil {
		m := b.Cluster.EngineOf(id).Metrics()
		cs.in = &instruments{
			delivered:   m.Counter("comm.delivered"),
			unreachable: m.Counter("comm.unreachable"),
			messages:    m.Counter("comm.messages"),
			retries:     m.Counter("comm.retries"),
			outstanding: m.Gauge("comm.outstanding_sends"),
			elapsed:     m.Histogram("comm.broadcast_elapsed_ns", broadcastElapsedBounds()),
		}
	}
	return cs.in
}

// NewBroadcaster returns a Broadcaster with the paper's defaults.
func NewBroadcaster(c *cluster.Cluster) *Broadcaster {
	b := &Broadcaster{
		Cluster:          c,
		Retries:          3,
		SendOverhead:     30 * time.Microsecond,
		RelayOverhead:    200 * time.Microsecond,
		MaxConcurrent:    128,
		PerNodeListBytes: 16,
		cells:            make([]cellState, c.Cells()),
	}
	for i := range b.cells {
		b.cells[i].limiters = make(map[cluster.NodeID]*limiter)
	}
	return b
}

// limiter serializes access to a sender's connection slots. Chains that
// find every slot taken wait in FIFO order in queue[head:]; the storage
// is reused instead of regrown, once the line empties or once the served
// prefix is at least half of a full slice.
type limiter struct {
	e     *simnet.Engine // the sender's cell
	max   int
	inUse int
	queue []waiter
	head  int
}

// waiter is a delivery chain waiting for a connection slot; start runs
// once the slot is granted.
type waiter interface {
	start()
}

func (b *Broadcaster) limiter(id cluster.NodeID) *limiter {
	m := b.cell(id).limiters
	l, ok := m[id]
	if !ok {
		l = &limiter{e: b.Cluster.EngineOf(id), max: b.MaxConcurrent}
		m[id] = l
	}
	return l
}

func (l *limiter) acquire(w waiter) {
	if l.inUse < l.max {
		l.inUse++
		w.start()
		return
	}
	if len(l.queue) == cap(l.queue) && 2*l.head >= len(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, w)
}

func (l *limiter) release() {
	if l.head < len(l.queue) {
		next := l.queue[l.head]
		l.queue[l.head] = nil
		l.head++
		if l.head == len(l.queue) {
			l.queue, l.head = l.queue[:0], 0
		}
		next.start()
		return
	}
	l.inUse--
}

// maxAttempts returns the attempt budget of the active retry policy.
func (b *Broadcaster) maxAttempts() int {
	if b.Retry != nil {
		if b.Retry.MaxAttempts < 1 {
			return 1
		}
		return b.Retry.MaxAttempts
	}
	return b.Retries
}

// retryDelay returns how long from's chain waits before attempt number
// next (jitter included). The fixed-count legacy policy retries
// immediately.
func (b *Broadcaster) retryDelay(from cluster.NodeID, next int) time.Duration {
	p := b.Retry
	if p == nil {
		return 0
	}
	d := p.backoff(next)
	if p.JitterFrac > 0 && d > 0 {
		cs := b.cell(from)
		if cs.retryRng == nil {
			cs.retryRng = b.Cluster.EngineOf(from).Rand("comm/retry")
		}
		if span := int64(float64(d) * p.JitterFrac); span > 0 {
			d += time.Duration(cs.retryRng.Int63n(span))
		}
	}
	return d
}

// hop is what a relay structure does with one of its delivery chains.
type hop interface {
	// relay runs on the target's cell when the payload first lands
	// there: the relay's processing before it forwards.
	relay(c *chain)
	// forward runs on the target's cell once the processing delay
	// scheduled by relayAfter has elapsed.
	forward(c *chain)
	// resolved runs on the sender's cell after the tracker has been
	// told the chain's outcome: the sender's continuation.
	resolved(c *chain, ok bool)
}

// okFunc adapts a point-to-point callback to hop.
type okFunc func(ok bool)

func (okFunc) relay(*chain)                 {}
func (okFunc) forward(*chain)               {}
func (f okFunc) resolved(_ *chain, ok bool) { f(ok) }

// send delivers one message with retries on a fresh chain; see sendChain.
func (b *Broadcaster) send(from, to cluster.NodeID, size int, t *tracker, h hop) *chain {
	c := new(chain)
	b.sendChain(c, from, to, size, t, h)
	return c
}

// sendChain delivers one message with retries, occupying a connection
// slot of the sender from dispatch until resolution. The outcome reaches
// t (may be nil) exactly once: duplicated deliveries
// (NetConfig.DupProb) are deduplicated here, so Delivered never
// double-counts a target. h (may be nil) is the structure's
// continuation. Fields the structure reads back (node, lo, hi) must be
// set on c before the call.
func (b *Broadcaster) sendChain(c *chain, from, to cluster.NodeID, size int, t *tracker, h hop) {
	c.b, c.from, c.to, c.size, c.t, c.h = b, from, to, int32(size), t, h
	c.lim = b.limiter(from)
	b.inst(from).outstanding.Add(1)
	if tr := c.lim.e.Tracer(); tr != nil {
		parent, parentCell := b.SpanParent, b.Cluster.CellOf(from)
		if t != nil {
			parent, parentCell = t.span, t.cell
		} else {
			b.SpanParent = 0
		}
		parent, attrs := crossParent(b.Cluster.CellOf(from), parentCell, parent,
			obs.Int("from", int(from)), obs.Int("to", int(to)))
		c.span = tr.Start("comm.send", parent, attrs...)
	} else if t == nil {
		b.SpanParent = 0
	}
	c.lim.acquire(c)
}

// crossParent resolves a span's parent for a tracer on cell when the
// parent was recorded on parentCell's tracer: a same-cell parent links
// directly, a parent on another cell rides the "xparent" attribute
// prepended to attrs.
func crossParent(cell, parentCell int, parent obs.SpanID, attrs ...obs.Attr) (obs.SpanID, []obs.Attr) {
	if parent != 0 && parentCell != cell {
		return 0, append([]obs.Attr{obs.String("xparent", obs.CellRef(parentCell, parent))}, attrs...)
	}
	return parent, attrs
}

// Chain event op codes.
const (
	opDispatch uint8 = iota // sender's cell: the send overhead has elapsed, put the attempt on the wire
	opBackoff               // sender's cell: the retry backoff has elapsed
	opNotify                // origin's cell: the outcome reaches the tracker
	opForward               // target's cell: the relay's processing has elapsed
)

// chain is one delivery chain: every attempt, backoff and the final
// outcome of one message from one sender to one target. It is the
// limiter's waiter, the simnet.Handler of its events on every cell, and
// the cluster.Receiver of each attempt's message. The sender's cell owns
// every field except landed, which only the target's cell touches. A
// star allocates one chain per target, so the fields are packed to keep
// the struct at 96 bytes.
type chain struct {
	b        *Broadcaster
	from, to cluster.NodeID
	lim      *limiter // the sender's, which knows its cell's engine
	t        *tracker
	h        hop
	node     *fptree.Node[cluster.NodeID] // tree structures: the subtree this chain delivers
	began    time.Duration                // when the chain got its connection slot
	span     obs.SpanID
	size     int32
	attempts int32
	lo, hi   int32 // ring position; binomial block
	resolved bool
	ok       bool
	landed   bool // target's cell: the payload has landed once
}

// start implements waiter: the chain has its connection slot.
func (c *chain) start() {
	c.began = c.lim.e.Now()
	c.attempt()
}

func (c *chain) attempt() {
	b := c.b
	in := b.inst(c.from)
	c.attempts++
	in.messages.Inc()
	if c.attempts > 1 {
		in.retries.Inc()
		if tr := c.lim.e.Tracer(); tr != nil {
			tr.Instant("comm.retry", c.span, obs.Int("attempt", int(c.attempts)))
		}
	}
	b.Cluster.Node(c.from).Meter.ChargeCPU(b.SendOverhead)
	c.lim.e.AfterHandler(b.SendOverhead, c, opDispatch)
}

// Fire implements simnet.Handler.
func (c *chain) Fire(op uint8) {
	switch op {
	case opDispatch:
		c.b.Cluster.Net.Send(c.from, c.to, int(c.size), c)
	case opBackoff:
		// Re-check the deadline when the backoff timer fires: a Deadline
		// expiring mid-backoff must resolve the chain (exactly once, via
		// the resolved guard) rather than launch an attempt past the
		// documented budget.
		if c.resolved {
			return
		}
		if c.pastDeadline() {
			c.settle(false)
			return
		}
		c.attempt()
	case opNotify:
		c.t.resolve(c.to, c.ok, int(c.attempts))
	case opForward:
		c.h.forward(c)
	}
}

// Arrived implements cluster.Receiver: a cross-cell payload landed on
// the target's cell, where a relay forwards without waiting for the ack.
func (c *chain) Arrived() {
	if c.landed {
		return
	}
	c.landed = true
	if c.h != nil {
		c.h.relay(c)
	}
}

// Delivered implements cluster.Receiver; a duplicate is ignored.
func (c *chain) Delivered() {
	if !c.resolved {
		c.settle(true)
	}
}

// Failed implements cluster.Receiver: retry within the policy's budget,
// otherwise resolve the target unreachable.
func (c *chain) Failed() {
	if c.resolved {
		return
	}
	b := c.b
	if int(c.attempts) < b.maxAttempts() && !c.pastDeadline() {
		if d := b.retryDelay(c.from, int(c.attempts)+1); d > 0 {
			c.lim.e.AfterHandler(d, c, opBackoff)
		} else {
			c.attempt()
		}
		return
	}
	c.settle(false)
}

func (c *chain) settle(ok bool) {
	b := c.b
	c.resolved, c.ok = true, ok
	b.inst(c.from).outstanding.Add(-1)
	if tr := c.lim.e.Tracer(); tr != nil {
		tr.SetAttrInt(c.span, "attempts", int(c.attempts))
		if !ok {
			tr.SetAttr(c.span, "ok", "false")
		}
		tr.End(c.span)
	}
	c.lim.release()
	if c.t != nil {
		if b.Cluster.CellOf(c.from) == c.t.cell {
			c.t.resolve(c.to, ok, int(c.attempts))
		} else {
			b.Cluster.Net.Post(c.from, c.t.origin, c, opNotify)
		}
	}
	if c.h == nil {
		return
	}
	if ok && b.Cluster.CellOf(c.from) == b.Cluster.CellOf(c.to) {
		c.h.relay(c)
	}
	c.h.resolved(c, ok)
}

// pastDeadline reports whether the chain has exhausted the policy's
// per-chain deadline.
func (c *chain) pastDeadline() bool {
	p := c.b.Retry
	return p != nil && p.Deadline > 0 && c.lim.e.Now()-c.began >= p.Deadline
}

// relayAfter charges a relay's processing on its own meter and schedules
// its forward after the relay delay, on the relay's cell.
func (b *Broadcaster) relayAfter(c *chain) {
	d := b.relayDelay(c.to)
	b.Cluster.Node(c.to).Meter.ChargeCPU(d)
	b.Cluster.EngineOf(c.to).AfterHandler(d, c, opForward)
}

// OutstandingSends returns the number of delivery chains currently in
// flight (holding or queued for a connection slot) across all senders.
// Zero means the communication layer is fully drained — a teardown
// invariant the chaos harness checks. The count lives in the registry
// gauges comm.outstanding_sends of every cell; on a multi-cell cluster
// read it only while the group is idle.
func (b *Broadcaster) OutstandingSends() int {
	n := 0
	for _, cs := range b.cells {
		if cs.in != nil {
			n += int(cs.in.outstanding.Value())
		}
	}
	return n
}

// relayDelay returns the relay processing cost at a node: RelayOverhead,
// inflated by the node's gray-failure factor (as its own cell sees it)
// when it is degraded.
func (b *Broadcaster) relayDelay(id cluster.NodeID) time.Duration {
	g := b.Cluster.Net.GrayFactorOn(id, id)
	if g <= 1 {
		return b.RelayOverhead
	}
	return time.Duration(float64(b.RelayOverhead) * g)
}

// Send delivers one point-to-point message with the broadcaster's retry
// policy, outside of any broadcast. cb receives true on delivery, false
// once all attempts are exhausted, on from's cell. Used by the master
// daemon for master↔satellite task hand-offs and heartbeats. The
// delivery-chain span, if tracing is on, is parented under the consumed
// SpanParent.
func (b *Broadcaster) Send(from, to cluster.NodeID, size int, cb func(ok bool)) {
	b.send(from, to, size, nil, okFunc(cb))
}

// tracker counts outstanding deliveries and finalizes the Result on the
// origin's cell. It also owns the broadcast's root span (comm.broadcast)
// and feeds the registry's delivery counters and latency histogram.
type tracker struct {
	b       *Broadcaster
	origin  cluster.NodeID
	cell    int
	engine  *simnet.Engine
	start   time.Duration
	pending int
	res     Result
	done    func(Result)
	span    obs.SpanID
}

func newTracker(b *Broadcaster, origin cluster.NodeID, structure string, pending int, done func(Result)) *tracker {
	e := b.Cluster.EngineOf(origin)
	t := &tracker{b: b, origin: origin, cell: b.Cluster.CellOf(origin), engine: e, start: e.Now(), pending: pending, done: done}
	parent := b.SpanParent
	b.SpanParent = 0
	if tr := e.Tracer(); tr != nil {
		t.span = tr.Start("comm.broadcast", parent,
			obs.String("structure", structure), obs.Int("targets", pending))
	}
	if pending == 0 {
		t.finish()
	}
	return t
}

// resolve records one target's outcome; attempts is the number of link
// messages its delivery chain sent (zero when none was sent).
func (t *tracker) resolve(id cluster.NodeID, ok bool, attempts int) {
	res := &t.res
	in := t.b.inst(t.origin)
	if t.b.OnResolve != nil {
		t.b.OnResolve(id, ok)
	}
	if attempts > 0 {
		res.Messages += attempts
		res.Retries += attempts - 1
	}
	if ok {
		res.Delivered++
		in.delivered.Inc()
		if t.b.RecordResolved {
			res.Resolved = append(res.Resolved, id)
		}
		if d := t.engine.Now() - t.start; d > res.DeliveredElapsed {
			res.DeliveredElapsed = d
		}
	} else {
		res.Unreachable = append(res.Unreachable, id)
		in.unreachable.Inc()
	}
	t.pending--
	if t.pending == 0 {
		t.finish()
	}
}

func (t *tracker) finish() {
	t.res.Elapsed = t.engine.Now() - t.start
	t.b.inst(t.origin).elapsed.Observe(int64(t.res.Elapsed))
	if tr := t.engine.Tracer(); tr != nil {
		tr.SetAttrInt(t.span, "delivered", t.res.Delivered)
		tr.SetAttrInt(t.span, "unreachable", len(t.res.Unreachable))
		tr.End(t.span)
	}
	if t.done != nil {
		t.done(t.res)
	}
}

// adopt records a comm.adopt instant on the sender's cell: a relay failed
// and its sender takes over its children.
func (t *tracker) adopt(from, failed cluster.NodeID, children int) {
	c := t.b.Cluster
	if tr := c.EngineOf(from).Tracer(); tr != nil && children > 0 {
		parent, attrs := crossParent(c.CellOf(from), t.cell, t.span,
			obs.Int("failed", int(failed)), obs.Int("children", children))
		tr.Instant("comm.adopt", parent, attrs...)
	}
}

// Structure is one broadcast topology.
type Structure interface {
	// Name identifies the structure in experiment output.
	Name() string
	// Broadcast delivers size payload bytes from origin to targets and
	// invokes done exactly once, on the origin's cell, with the outcome.
	// Call it from the origin's cell. The targets slice is not retained.
	Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result))
}

// ---------------------------------------------------------------------------
// Star: the origin contacts every target directly (a centralized master's
// broadcast). Bounded by the origin's MaxConcurrent slots: failures hold
// slots for retries × timeout, so broadcast time grows with failure count.

// Star broadcasts directly from the origin to all targets.
type Star struct{}

// Name returns "star".
func (Star) Name() string { return "star" }

// Broadcast implements Structure.
func (Star) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	t := newTracker(b, origin, "star", len(targets), done)
	chains := make([]chain, len(targets))
	for i, id := range targets {
		b.sendChain(&chains[i], origin, id, size, t, nil)
	}
}

// ---------------------------------------------------------------------------
// Ring: the message travels target-to-target in list order. A failed node
// is skipped after retries; its successor is contacted by the predecessor.

// Ring broadcasts by relaying along the target list.
type Ring struct{}

// Name returns "ring".
func (Ring) Name() string { return "ring" }

// Broadcast implements Structure.
func (Ring) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	r := &ringCast{t: newTracker(b, origin, "ring", len(targets), done), ids: append([]cluster.NodeID(nil), targets...), size: size}
	r.hop(origin, 0)
}

// ringCast is one ring broadcast in flight.
type ringCast struct {
	t    *tracker
	ids  []cluster.NodeID
	size int
}

// hop sends from `from` to the target at position idx.
func (r *ringCast) hop(from cluster.NodeID, idx int) {
	if idx >= len(r.ids) {
		return
	}
	b := r.t.b
	// The relay message carries the remaining list.
	c := &chain{lo: int32(idx)}
	b.sendChain(c, from, r.ids[idx], r.size+(len(r.ids)-idx)*b.PerNodeListBytes, r.t, r)
}

func (r *ringCast) relay(c *chain)   { r.t.b.relayAfter(c) }
func (r *ringCast) forward(c *chain) { r.hop(c.to, int(c.lo)+1) }

func (r *ringCast) resolved(c *chain, ok bool) {
	if !ok {
		// Skip the dead node: the same sender tries its successor.
		r.hop(c.from, int(c.lo)+1)
	}
}

// ---------------------------------------------------------------------------
// SharedMem: the origin publishes the payload to a shared-memory service
// and every target fetches it. The service processes fetches sequentially,
// so broadcast time is ~n × service time, nearly independent of failures
// (failed nodes simply never fetch).

// SharedMem broadcasts via a publish/fetch shared-memory service hosted on
// the origin.
type SharedMem struct {
	// ServiceTime is the per-fetch handling cost at the service. Zero
	// takes a 1.2 ms default, calibrated so a 4K-node fetch storm drains
	// in a few seconds as in Fig. 8b.
	ServiceTime time.Duration
}

// Name returns "sharedmem".
func (SharedMem) Name() string { return "sharedmem" }

// Broadcast implements Structure. The fetch service touches every
// target's meter from the origin's engine, so it needs a one-cell
// cluster.
func (s SharedMem) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	if b.Cluster.Cells() > 1 {
		panic("comm: SharedMem needs a one-cell cluster")
	}
	st := s.ServiceTime
	if st == 0 {
		st = 1200 * time.Microsecond
	}
	e := b.Cluster.Engine
	t := newTracker(b, origin, "sharedmem", len(targets), done)
	// Publish: one write into the shared segment.
	b.Cluster.Node(origin).Meter.ChargeCPU(b.SendOverhead)
	timeout := b.Cluster.Net.Config().ConnectTimeout
	queue := time.Duration(0)
	for _, id := range targets {
		id := id
		if b.Cluster.Node(id).Failed() {
			// A failed node never issues its fetch; the service notices
			// the missing ack after its timeout when collecting results.
			e.After(timeout, func() {
				t.resolve(id, false, 0)
			})
			continue
		}
		queue += st
		delay := queue + b.Cluster.Net.TransferTime(size)
		t.res.Messages++
		b.inst(origin).messages.Inc()
		e.After(delay, func() {
			// The node may have failed while queued behind earlier fetches
			// (a mid-broadcast failure): its fetch never happens and the
			// service notices the missing ack after its timeout.
			if b.Cluster.Node(id).Failed() {
				e.After(timeout, func() { t.resolve(id, false, 0) })
				return
			}
			b.Cluster.Node(id).Meter.CountMessage(false, size)
			t.resolve(id, true, 0)
		})
	}
}

// ---------------------------------------------------------------------------
// KTree: classic k-ary relay tree over the target list order. A failed
// interior node's parent adopts its children after retries — the expensive
// re-routing that FP-Tree avoids.

// KTree broadcasts over a width-W relay tree built from the list order.
type KTree struct {
	// Width is the tree fan-out; zero takes fptree.DefaultWidth.
	Width int
}

// Name returns "tree".
func (KTree) Name() string { return "tree" }

func (k KTree) width() int {
	if k.Width == 0 {
		return fptree.DefaultWidth
	}
	return k.Width
}

// Broadcast implements Structure.
func (k KTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	trc := b.Cluster.EngineOf(origin).Tracer()
	span := trc.Start("fptree.build", b.SpanParent,
		obs.Int("targets", len(targets)), obs.Int("width", k.width()))
	tr := fptree.Build(append([]cluster.NodeID(nil), targets...), k.width())
	trc.End(span)
	broadcastTree(b, "tree", origin, tr, size, done)
}

// broadcastTree relays a payload down a materialized tree with parent-
// adoption fault tolerance.
func broadcastTree(b *Broadcaster, structure string, origin cluster.NodeID, tr *fptree.Tree[cluster.NodeID], size int, done func(Result)) {
	tc := &treeCast{t: newTracker(b, origin, structure, tr.Size(), done), size: size}
	for _, r := range tr.Roots {
		tc.dispatch(origin, r)
	}
}

// treeCast is one tree broadcast in flight.
type treeCast struct {
	t    *tracker
	size int
}

// dispatch sends from `from` to the root of subtree n; the message
// carries the subtree's sub-nodelist.
func (tc *treeCast) dispatch(from cluster.NodeID, n *fptree.Node[cluster.NodeID]) {
	b := tc.t.b
	c := &chain{node: n}
	b.sendChain(c, from, n.Value, tc.size+n.Size*b.PerNodeListBytes, tc.t, tc)
}

func (tc *treeCast) relay(c *chain) {
	if len(c.node.Children) > 0 {
		tc.t.b.relayAfter(c)
	}
}

func (tc *treeCast) forward(c *chain) {
	for _, ch := range c.node.Children {
		tc.dispatch(c.to, ch)
	}
}

func (tc *treeCast) resolved(c *chain, ok bool) {
	if ok {
		return
	}
	// Fault tolerance: the parent adopts the failed child's children and
	// contacts them directly.
	tc.t.adopt(c.from, c.to, len(c.node.Children))
	for _, ch := range c.node.Children {
		tc.dispatch(c.from, ch)
	}
}

// ---------------------------------------------------------------------------
// FPTree: the paper's structure — rearrange the list so predicted-failed
// nodes are leaves, then broadcast over the k-ary tree.

// FPTree broadcasts over the failure-prediction-rearranged relay tree.
type FPTree struct {
	// Width is the tree fan-out; zero takes fptree.DefaultWidth.
	Width int
	// Predictor supplies the predicted-failed set; nil behaves like
	// predict.Null (plain tree).
	Predictor predict.Predictor
	// Stats, when non-nil, accumulates placement statistics for the
	// FP-Tree placement experiment (§VII-A).
	Stats *PlacementStats
}

// PlacementStats accumulates how many actually-failed nodes the FP-Tree
// proactively identified — predicted at construction time and therefore
// deliberately placed at leaf positions (the paper reports 81.7%). A
// failed node that merely lands on a leaf by chance (most slots of a wide
// tree are leaves) does not count: the statistic measures the prediction
// pipeline, not slot geometry.
type PlacementStats struct {
	TreesBuilt        int
	NodesTotal        int
	FailedEncountered int
	FailedAtLeaves    int
}

// LeafPlacementRatio returns FailedAtLeaves / FailedEncountered.
func (p *PlacementStats) LeafPlacementRatio() float64 {
	if p.FailedEncountered == 0 {
		return 0
	}
	return float64(p.FailedAtLeaves) / float64(p.FailedEncountered)
}

// Name returns "fptree".
func (FPTree) Name() string { return "fptree" }

func (f FPTree) width() int {
	if f.Width == 0 {
		return fptree.DefaultWidth
	}
	return f.Width
}

// Plan returns the rearranged target list without broadcasting — used by
// tests and by the FP-Tree constructor pipeline.
func (f FPTree) Plan(targets []cluster.NodeID) []cluster.NodeID {
	pred := f.Predictor
	if pred == nil {
		pred = predict.Null{}
	}
	return fptree.Rearrange(targets, func(id cluster.NodeID) bool { return pred.Predicted(id) }, f.width())
}

// Broadcast implements Structure.
func (f FPTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	pred := f.Predictor
	if pred == nil {
		pred = predict.Null{}
	}
	trc := b.Cluster.EngineOf(origin).Tracer()
	span := trc.Start("fptree.plan", b.SpanParent,
		obs.Int("targets", len(targets)), obs.Int("width", f.width()))
	list := f.Plan(targets)
	trc.End(span)
	span = trc.Start("fptree.build", b.SpanParent, obs.Int("targets", len(list)))
	tr := fptree.Build(list, f.width())
	trc.End(span)
	if f.Stats != nil {
		f.Stats.TreesBuilt++
		f.Stats.NodesTotal += len(list)
		slots := fptree.LeafSlots(len(list), f.width())
		for i, id := range list {
			if b.Cluster.FailedOn(origin, id) {
				f.Stats.FailedEncountered++
				if slots[i] && pred.Predicted(id) {
					f.Stats.FailedAtLeaves++
				}
			}
		}
	}
	broadcastTree(b, "fptree", origin, tr, size, done)
}

// ---------------------------------------------------------------------------
// Binomial: the classic MPI broadcast tree. In round k, every node that
// already holds the message forwards it to one new peer, so delivery takes
// ⌈log2 n⌉ rounds with at most one outstanding send per holder. Included
// as the standard message-passing baseline alongside the paper's four
// structures; like the plain k-ary tree, a failed interior node stalls the
// whole block it was responsible for until the timeout.

// Binomial broadcasts over a binomial tree built from the target order.
type Binomial struct{}

// Name returns "binomial".
func (Binomial) Name() string { return "binomial" }

// Broadcast implements Structure.
func (Binomial) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	bc := &binomialCast{t: newTracker(b, origin, "binomial", len(targets), done), ids: append([]cluster.NodeID(nil), targets...), size: size}
	bc.block(origin, 0, len(bc.ids))
}

// binomialCast is one binomial broadcast in flight.
type binomialCast struct {
	t    *tracker
	ids  []cluster.NodeID
	size int
}

// block: holder (origin for the root call, otherwise the node that
// received ids[lo:hi) to relay) is responsible for delivering ids[lo:hi).
// It sends to the block's head; the head takes the upper half, the
// holder keeps the lower half — the standard binomial recursion.
func (bc *binomialCast) block(holder cluster.NodeID, lo, hi int) {
	if lo >= hi {
		return
	}
	b := bc.t.b
	c := &chain{lo: int32(lo), hi: int32(hi)}
	b.sendChain(c, holder, bc.ids[lo], bc.size+(hi-lo)*b.PerNodeListBytes, bc.t, bc)
}

// mid splits a chain's block after its head.
func (c *chain) mid() int { return int(c.lo) + 1 + int(c.hi-c.lo-1)/2 }

func (bc *binomialCast) relay(c *chain)   { bc.t.b.relayAfter(c) }
func (bc *binomialCast) forward(c *chain) { bc.block(c.to, c.mid(), int(c.hi)) }

func (bc *binomialCast) resolved(c *chain, ok bool) {
	lo, hi := int(c.lo), int(c.hi)
	if ok {
		bc.block(c.from, lo+1, c.mid())
		return
	}
	// Fault tolerance: the holder keeps both halves.
	bc.t.adopt(c.from, c.to, hi-lo-1)
	bc.block(c.from, c.mid(), hi)
	bc.block(c.from, lo+1, c.mid())
}
