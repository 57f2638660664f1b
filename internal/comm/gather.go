package comm

import (
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/fptree"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
)

// This file implements broadcast-with-gather: the payload flows down the
// relay tree and per-node acknowledgements flow back *up* it, merged at
// every interior node, so the origin receives one aggregated reply per
// first-layer subtree rather than one ack per node. This is the satellite
// node's "bidirectional communication buffer with initial data aggregation
// and processing capabilities" (Section III-A) realized as actual reverse-
// path messages rather than bookkeeping.

// GatherResult is the outcome of a BroadcastGather: the plain broadcast
// Result plus the time at which the origin held the complete aggregate.
type GatherResult struct {
	Result
	// AggregatedAt is when the last first-layer aggregate reached the
	// origin (equals Result.Elapsed by construction).
	AggregatedAt time.Duration
}

// GatherTree broadcasts over an FP-Tree and gathers merged
// acknowledgements back to the origin.
type GatherTree struct {
	// Width is the tree fan-out; zero takes fptree.DefaultWidth.
	Width int
	// Predictor supplies the predicted-failed set (nil = none).
	Predictor predict.Predictor
	// AckBytesPerNode sizes the aggregate messages (default 16).
	AckBytesPerNode int
}

// Name returns "gathertree".
func (GatherTree) Name() string { return "gathertree" }

func (g GatherTree) width() int {
	if g.Width == 0 {
		return fptree.DefaultWidth
	}
	return g.Width
}

func (g GatherTree) ackBytes() int {
	if g.AckBytesPerNode == 0 {
		return 16
	}
	return g.AckBytesPerNode
}

// subReply is one subtree's merged acknowledgement.
type subReply struct {
	ok  []cluster.NodeID
	bad []cluster.NodeID
}

// Broadcast implements Structure: done fires when the origin holds the
// full aggregate.
func (g GatherTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	g.BroadcastGather(b, origin, targets, size, func(r GatherResult) {
		if done != nil {
			done(r.Result)
		}
	})
}

// BroadcastGather runs the broadcast+gather and reports the GatherResult.
// Its relays run their gather bookkeeping on the origin's engine, so it
// needs a one-cell cluster.
func (g GatherTree) BroadcastGather(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(GatherResult)) {
	if b.Cluster.Cells() > 1 {
		panic("comm: GatherTree needs a one-cell cluster")
	}
	e := b.Cluster.Engine
	start := e.Now()
	pred := g.Predictor
	if pred == nil {
		pred = predict.Null{}
	}
	trc := e.Tracer()
	span := trc.Start("comm.broadcast", b.SpanParent,
		obs.String("structure", "gathertree"), obs.Int("targets", len(targets)))
	b.SpanParent = 0
	planSpan := trc.Start("fptree.plan", span, obs.Int("targets", len(targets)), obs.Int("width", g.width()))
	list := fptree.Rearrange(targets, func(id cluster.NodeID) bool { return pred.Predicted(id) }, g.width())
	trc.End(planSpan)
	buildSpan := trc.Start("fptree.build", span, obs.Int("targets", len(list)))
	tr := fptree.Build(list, g.width())
	trc.End(buildSpan)

	res := GatherResult{}
	var lastDelivery time.Duration

	// visit delivers the payload to n's subtree from `from` and invokes
	// reply exactly once with the subtree's merged acknowledgement.
	var visit func(from cluster.NodeID, n *fptree.Node[cluster.NodeID], reply func(subReply))
	visit = func(from cluster.NodeID, n *fptree.Node[cluster.NodeID], reply func(subReply)) {
		sz := size + n.Size*b.PerNodeListBytes
		b.sendUnder(span, &res.Result, from, n.Value, sz, func(delivered bool) {
			if !delivered {
				// Adoption: `from` contacts the dead child's children
				// directly and merges their replies itself.
				if b.OnResolve != nil {
					b.OnResolve(n.Value, false)
				}
				merged := subReply{bad: []cluster.NodeID{n.Value}}
				pending := len(n.Children)
				if pending == 0 {
					reply(merged)
					return
				}
				for _, ch := range n.Children {
					visit(from, ch, func(r subReply) {
						merged.ok = append(merged.ok, r.ok...)
						merged.bad = append(merged.bad, r.bad...)
						pending--
						if pending == 0 {
							reply(merged)
						}
					})
				}
				return
			}
			if d := e.Now() - start; d > lastDelivery {
				lastDelivery = d
			}
			if b.OnResolve != nil {
				b.OnResolve(n.Value, true)
			}
			merged := subReply{ok: []cluster.NodeID{n.Value}}
			finish := func() {
				// The aggregate travels up as one real message sized by the
				// subtree's node count. A lost aggregate (parent died) is
				// degraded to local bookkeeping so the gather still
				// terminates.
				aggSz := (len(merged.ok) + len(merged.bad)) * g.ackBytes()
				b.sendUnder(span, &res.Result, n.Value, from, aggSz, func(bool) { reply(merged) })
			}
			if len(n.Children) == 0 {
				e.After(b.relayDelay(n.Value), finish)
				return
			}
			e.After(b.relayDelay(n.Value), func() {
				pending := len(n.Children)
				for _, ch := range n.Children {
					visit(n.Value, ch, func(r subReply) {
						merged.ok = append(merged.ok, r.ok...)
						merged.bad = append(merged.bad, r.bad...)
						pending--
						if pending == 0 {
							finish()
						}
					})
				}
			})
		})
	}

	// seal finalizes the registry instruments and the root span once the
	// origin holds the complete aggregate (or the target list was empty).
	seal := func() {
		in := b.inst(origin)
		in.delivered.Add(int64(res.Delivered))
		in.unreachable.Add(int64(len(res.Unreachable)))
		in.elapsed.Observe(int64(res.Elapsed))
		trc.SetAttrInt(span, "delivered", res.Delivered)
		trc.SetAttrInt(span, "unreachable", len(res.Unreachable))
		trc.End(span)
	}

	pending := len(tr.Roots)
	if pending == 0 {
		res.Elapsed = 0
		seal()
		if done != nil {
			done(res)
		}
		return
	}
	for _, r := range tr.Roots {
		visit(origin, r, func(sr subReply) {
			res.Delivered += len(sr.ok)
			if b.RecordResolved {
				res.Resolved = append(res.Resolved, sr.ok...)
			}
			res.Unreachable = append(res.Unreachable, sr.bad...)
			pending--
			if pending == 0 {
				res.Elapsed = e.Now() - start
				res.AggregatedAt = res.Elapsed
				res.DeliveredElapsed = lastDelivery
				seal()
				if done != nil {
					done(res)
				}
			}
		})
	}
}

// sendUnder sends one point-to-point message whose delivery-chain span
// nests under span and whose messages and retries count into res.
func (b *Broadcaster) sendUnder(span obs.SpanID, res *Result, from, to cluster.NodeID, size int, cb func(ok bool)) {
	b.SpanParent = span
	b.send(from, to, size, nil, countedFunc{res, cb})
}

// countedFunc is okFunc that also counts the chain's messages and
// retries into a Result.
type countedFunc struct {
	res *Result
	cb  func(ok bool)
}

func (countedFunc) relay(*chain)   {}
func (countedFunc) forward(*chain) {}

func (f countedFunc) resolved(c *chain, ok bool) {
	f.res.Messages += int(c.attempts)
	f.res.Retries += int(c.attempts) - 1
	f.cb(ok)
}
