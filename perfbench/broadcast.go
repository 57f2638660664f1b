package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
	"eslurm/internal/rm"
	"eslurm/internal/simnet"
	"eslurm/internal/topo"
)

// rmNames lists the six resource managers of the paper's comparison.
var rmNames = []string{"SGE", "Torque", "OpenPBS", "LSF", "Slurm", "ESlurm"}

const (
	bootTime = 2 * time.Second  // daemon start-up before the job arrives
	horizon  = 5 * time.Minute  // run time after each job message; a later callback fails
	drain    = 10 * time.Minute // settles in-flight sends after Stop
)

// windowWorkers is the sharded kernel's goroutine count: one per CPU.
const windowWorkers = 2

// broadcastConfig sizes the job-launch probe matrix: every RM × every
// job size on one cluster, a fraction of each job's nodes failed.
type broadcastConfig struct {
	nodes    int
	sizes    []int
	failFrac float64
	sharded  bool
}

func defaultBroadcast(sharded bool) broadcastConfig {
	return broadcastConfig{nodes: 2048, sizes: []int{64, 256, 1024, 2048}, failFrac: 0.02, sharded: sharded}
}

// probeResult is the simulated output of one probe plus the layer counts
// read from the engine's metrics registry after it drained.
type probeResult struct {
	rm                   string
	size                 int
	failed               int
	load, term           time.Duration
	loadFired, termFired bool
	events               uint64
	cellEvents           []uint64
	counters             map[string]int64
	// broadcasts holds every comm.broadcast span of a probe run with
	// simulation tracing on; nil otherwise.
	broadcasts       []broadcastSpan
	builds, rebuilds int // fptree builds, and repeat builds under one root span
}

// broadcastSpan is the outcome a comm.broadcast span records.
type broadcastSpan struct {
	ended                           bool
	targets, delivered, unreachable int
}

// probeCounters are the registry counters the probe reports.
var probeCounters = []string{
	"comm.messages", "comm.retries", "comm.delivered", "comm.unreachable",
	"comm.outstanding_sends",
	"master.subtasks", "master.reallocations", "master.takeovers",
}

// checkProbe verifies one probe's outputs: both callbacks fired within
// the horizon, every delivery chain settled, no chain resolved twice, and
// (when spans were recorded) every broadcast resolved each target exactly
// once: delivered + unreachable = targets.
func checkProbe(p probeResult) error {
	if !p.loadFired || p.load <= 0 || p.load > horizon {
		return fmt.Errorf("%s/%d: load callback fired=%v after %v", p.rm, p.size, p.loadFired, p.load)
	}
	if !p.termFired || p.term <= 0 || p.term > horizon {
		return fmt.Errorf("%s/%d: terminate callback fired=%v after %v", p.rm, p.size, p.termFired, p.term)
	}
	c := p.counters
	if c["comm.outstanding_sends"] != 0 {
		return fmt.Errorf("%s/%d: %d sends still outstanding after drain", p.rm, p.size, c["comm.outstanding_sends"])
	}
	if c["comm.delivered"]+c["comm.unreachable"] > c["comm.messages"]-c["comm.retries"] {
		return fmt.Errorf("%s/%d: %d resolutions from %d delivery chains", p.rm, p.size,
			c["comm.delivered"]+c["comm.unreachable"], c["comm.messages"]-c["comm.retries"])
	}
	if c["comm.delivered"] < int64(2*(p.size-p.failed)) {
		return fmt.Errorf("%s/%d: %d deliveries, fewer than the job's live nodes twice", p.rm, p.size, c["comm.delivered"])
	}
	for i, b := range p.broadcasts {
		if !b.ended || b.delivered+b.unreachable != b.targets {
			return fmt.Errorf("%s/%d: broadcast %d ended=%v delivered %d + unreachable %d != targets %d",
				p.rm, p.size, i, b.ended, b.delivered, b.unreachable, b.targets)
		}
	}
	return nil
}

// broadcastPass runs the probe matrix once. Each probe is one operation.
func broadcastPass(cfg broadcastConfig, seed int64, rec *recorder, simTrace bool) passResult {
	var res passResult
	rng := rand.New(rand.NewSource(seed))
	res.layer = map[string]float64{}
	var cells []uint64
	dg := newDigest()
	for _, name := range rmNames {
		for _, size := range cfg.sizes {
			rec.nextOp()
			failed := failSpread(rng, size, cfg.failFrac)
			t0 := time.Now()
			var p probeResult
			var setup time.Duration
			if cfg.sharded {
				p, setup = probeSharded(cfg, name, size, failed, seed, rec, simTrace)
			} else {
				p, setup = probeSingle(cfg, name, size, failed, seed, rec, simTrace)
			}
			res.ops = append(res.ops, time.Since(t0))
			res.setup = append(res.setup, setup)
			if err := checkProbe(p); err != nil {
				res.failed++
				res.errs = append(res.errs, err)
			}
			res.events += p.events
			for i, n := range p.cellEvents {
				if i >= len(cells) {
					cells = append(cells, 0)
				}
				cells[i] += n
			}
			for _, k := range probeCounters {
				res.layer[k] += float64(p.counters[k])
			}
			res.layer["fptree.builds"] += float64(p.builds)
			res.layer["fptree.rebuilds"] += float64(p.rebuilds)
			dg.str(p.rm)
			dg.int(int64(p.size))
			dg.int(int64(p.load))
			dg.int(int64(p.term))
			dg.int(int64(p.events))
			for _, k := range probeCounters {
				dg.int(p.counters[k])
			}
		}
	}
	if m := res.layer["comm.messages"]; m > 0 {
		res.layer["comm.delivered_per_message"] = res.layer["comm.delivered"] / m
	}
	var top uint64
	for _, n := range cells {
		top = max(top, n)
	}
	if res.events > 0 && cfg.sharded {
		res.layer["simnet.cell_events_max_share"] = float64(top) / float64(res.events)
	}
	res.attempted = len(res.ops)
	res.digest = dg.sum()
	return res
}

// failSpread picks the failed nodes of a job of the given size as
// indexes into its node list: count = size·frac, spread at a fixed
// stride from a seeded offset.
func failSpread(rng *rand.Rand, size int, frac float64) []int {
	count := int(float64(size) * frac)
	if count <= 0 {
		return nil
	}
	stride := size / count
	off := rng.Intn(stride)
	out := make([]int, count)
	for i := range out {
		out[i] = off + i*stride
	}
	return out
}

// satellites mirrors the experiment probes' sizing: about one satellite
// per 5K computes, at least two from 1K nodes up.
func satellites(nodes int) int {
	if nodes >= 1024 {
		return 2 + nodes/5120
	}
	return 1
}

func newRM(name string, c *cluster.Cluster) rm.RM {
	switch name {
	case "SGE":
		return rm.NewCentralized(c, rm.SGEProfile())
	case "Torque":
		return rm.NewCentralized(c, rm.TorqueProfile())
	case "OpenPBS":
		return rm.NewCentralized(c, rm.OpenPBSProfile())
	case "LSF":
		return rm.NewCentralized(c, rm.LSFProfile())
	case "Slurm":
		return rm.NewCentralized(c, rm.SlurmProfile())
	case "ESlurm":
		return rm.NewESlurmWithPredictor(c, predict.Oracle{Cluster: c})
	}
	panic("perfbench: unknown RM " + name)
}

// probeSingle runs one job-launch probe on a single engine:
// NewEngine → cluster.New → RM constructor + Start → RunUntil(boot) →
// LoadJob → RunUntil → TerminateJob → RunUntil, then Stop and drain.
func probeSingle(cfg broadcastConfig, name string, size int, failed []int, seed int64, rec *recorder, simTrace bool) (probeResult, time.Duration) {
	p := probeResult{rm: name, size: size, failed: len(failed)}
	root := rec.begin("rm."+name, 0)
	defer rec.end(root)

	t0 := time.Now()
	sp := rec.begin("simnet.new", root)
	e := simnet.NewEngine(seed)
	rec.end(sp)
	if simTrace {
		e.EnableTracing()
	}
	sp = rec.begin("cluster.new", root)
	c := cluster.New(e, cluster.Config{Computes: cfg.nodes, Satellites: satellites(cfg.nodes)})
	rec.end(sp)
	sp = rec.begin("rm.new", root)
	r := newRM(name, c)
	rec.end(sp)
	sp = rec.begin("rm.start", root)
	r.Start()
	rec.end(sp)
	setup := time.Since(t0)

	run := func(t time.Duration) {
		sp := rec.begin("simnet.run", root)
		e.RunUntil(t)
		rec.end(sp)
	}
	run(bootTime)
	nodes := c.Computes()[:size]
	for _, i := range failed {
		c.Fail(nodes[i])
	}
	start := e.Now()
	sp = rec.begin("rm.load_job", root)
	r.LoadJob(nodes, func(d time.Duration) { p.load, p.loadFired = d, true })
	rec.end(sp)
	run(start + horizon)
	termStart := e.Now()
	sp = rec.begin("rm.terminate_job", root)
	r.TerminateJob(nodes, func(d time.Duration) { p.term, p.termFired = d, true })
	rec.end(sp)
	run(termStart + horizon)
	r.Stop()
	run(e.Now() + drain)

	p.events = e.Processed()
	p.counters = readCounters(e.Metrics())
	if simTrace {
		p.readSpans([]*obs.Tracer{e.Tracer()})
	}
	return p, setup
}

// probeSharded runs the same probe through cluster.NewSharded and
// rm.NewShardedByName on a ShardGroup with one cell per rack plus the
// control-plane cell.
func probeSharded(cfg broadcastConfig, name string, size int, failed []int, seed int64, rec *recorder, simTrace bool) (probeResult, time.Duration) {
	p := probeResult{rm: name, size: size, failed: len(failed)}
	root := rec.begin("rm."+name, 0)
	defer rec.end(root)

	sats := satellites(cfg.nodes)
	cells, cellOf := shardLayout(cfg.nodes, sats)
	t0 := time.Now()
	sp := rec.begin("cluster.new", root)
	sc := cluster.NewSharded(cluster.ShardConfig{
		Computes: cfg.nodes, Satellites: sats, Cells: cells, CellOf: cellOf,
		Workers: windowWorkers, Seed: seed,
	})
	rec.end(sp)
	g := sc.Group()
	if simTrace {
		g.EnableTracing()
	}
	sp = rec.begin("rm.new", root)
	r := rm.NewShardedByName(name, sc)
	rec.end(sp)
	sp = rec.begin("rm.start", root)
	r.Start()
	rec.end(sp)
	setup := time.Since(t0)

	run := func(t time.Duration) {
		sp := rec.begin("simnet.run", root)
		g.RunUntil(t)
		rec.end(sp)
	}
	run(bootTime)
	nodes := sc.Computes()[:size]
	now := g.Cell(0).Now()
	for _, i := range failed {
		sc.ScheduleFail(nodes[i], now, 0)
	}
	run(now)
	start := g.Cell(0).Now()
	sp = rec.begin("rm.load_job", root)
	r.LoadJob(nodes, func(d time.Duration) { p.load, p.loadFired = d, true })
	rec.end(sp)
	run(start + horizon)
	termStart := g.Cell(0).Now()
	sp = rec.begin("rm.terminate_job", root)
	r.TerminateJob(nodes, func(d time.Duration) { p.term, p.termFired = d, true })
	rec.end(sp)
	run(termStart + horizon)
	r.Stop()
	run(g.Cell(0).Now() + drain)

	p.events = g.Processed()
	for i := 0; i < g.Cells(); i++ {
		p.cellEvents = append(p.cellEvents, g.Cell(i).Processed())
	}
	p.counters = readCounters(g.MergedMetrics())
	if simTrace {
		p.readSpans(g.CellTracers())
	}
	return p, setup
}

// shardLayout puts the control plane (master and satellites) on cell 0
// and every 512-node compute rack on a cell of its own.
func shardLayout(computes, sats int) (int, func(cluster.NodeID, cluster.Role) int) {
	tp := topo.Default()
	per := tp.NodesPerRack()
	racks := max(1, (computes+per-1)/per)
	first := 1 + sats
	return 1 + racks, func(id cluster.NodeID, role cluster.Role) int {
		if role != cluster.RoleCompute {
			return 0
		}
		return 1 + tp.Rack(cluster.NodeID(int(id)-first))
	}
}

// readCounters reads the probe's counters from a metrics registry.
func readCounters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(probeCounters))
	for _, m := range reg.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}

// readSpans collects the comm.broadcast outcomes and counts fptree
// builds from simulation-time tracers; a build under a root span that
// already saw one is a rebuild.
func (p *probeResult) readSpans(tracers []*obs.Tracer) {
	for _, tr := range tracers {
		spans := tr.Spans()
		perRoot := map[obs.SpanID]int{}
		for i, s := range spans {
			switch s.Name {
			case "comm.broadcast":
				// A count that does not parse reads as 0 and fails
				// the delivered + unreachable = targets check.
				b := broadcastSpan{ended: s.Ended}
				for _, a := range s.Attrs {
					switch a.Key {
					case "targets":
						b.targets, _ = strconv.Atoi(a.Value)
					case "delivered":
						b.delivered, _ = strconv.Atoi(a.Value)
					case "unreachable":
						b.unreachable, _ = strconv.Atoi(a.Value)
					}
				}
				p.broadcasts = append(p.broadcasts, b)
			case "fptree.build":
				root := obs.SpanID(i + 1)
				for spans[root-1].Parent != 0 {
					root = spans[root-1].Parent
				}
				perRoot[root]++
				p.builds++
				if perRoot[root] > 1 {
					p.rebuilds++
				}
			}
		}
	}
}
