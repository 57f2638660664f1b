// Command perfbench is the repository benchmark. It drives the layers'
// public APIs through one of four seeded workloads in a closed loop (one
// caller; the next operation starts when the previous one returns),
// checks every output, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with all
// tracing off; with -trace 1 they are the per-layer set, read from
// host-time spans the benchmark records around each call into a layer
// and from the simulator's own span and metric registries. BENCHMARK.json
// at the repository root declares both sets; README.md here explains the
// workloads and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh -workload broadcast -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// heldOutSeed is reserved for re-checking performance claims: tune and
// develop on other seeds, then confirm a claim on this one.
const heldOutSeed = 7919

// maxThreads caps the Go scheduler: the benchmark runs on two CPUs.
const maxThreads = 2

// workload is one named set of inputs and the pass that runs them.
type workload struct {
	name string
	// predicted names the per-layer time metric expected to take most
	// of the wall time; predicted_layer_share reports its share.
	predicted string
	pass      func(seed int64, rec *recorder, simTrace bool) passResult
}

func workloads() []workload {
	return []workload{
		{"broadcast", "simnet.run_s", func(seed int64, rec *recorder, simTrace bool) passResult {
			return broadcastPass(defaultBroadcast(false), seed, rec, simTrace)
		}},
		{"broadcast-sharded", "simnet.run_s", func(seed int64, rec *recorder, simTrace bool) passResult {
			return broadcastPass(defaultBroadcast(true), seed, rec, simTrace)
		}},
		{"estimate", "estimate.refresh_s", func(seed int64, rec *recorder, _ bool) passResult {
			return estimatePass(defaultEstimate(), seed, rec)
		}},
		{"schedule", "sched.self_s", func(seed int64, rec *recorder, simTrace bool) passResult {
			return schedulePass(defaultSchedule(), seed, rec, simTrace)
		}},
	}
}

// passResult is one pass over a workload's inputs: its simulated outputs'
// digest, per-operation host latencies, failures, and layer counts, plus
// the host resources the pass used.
type passResult struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCycles  uint32
	gcPause   time.Duration
	// setup holds the host time of each set-up step (trace generation,
	// engine, cluster, RM and framework construction), in pass order.
	setup []time.Duration

	ops []time.Duration
	// attempted and failed count the pass's operations; a failed check
	// on the whole pass fails every operation.
	attempted, failed int
	errs              []error
	events            uint64
	digest            uint64
	layer             map[string]float64
	// times holds the pass's span times by span name (traced passes).
	times map[string]layerTime
}

// measure runs one pass and records the wall time, CPU time, allocation
// and garbage collection it cost. A collection first gives every pass the
// same starting heap.
func measure(fn func() passResult) passResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	p := fn()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// runResult is everything one invocation measured.
type runResult struct {
	untraced, traced []passResult
	spans            []hostSpan
	attempted        int
	failed           int
	errs             []error
}

// runWorkload repeats identical passes until the run has lasted at least
// the given duration (and at least one pass). In a traced run each
// untraced pass is followed by a traced pass over the same inputs, so
// per-layer times come from traced passes and the tracing overhead is the
// ratio of the two.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool) runResult {
	var r runResult
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	start := time.Now()
	for len(r.untraced) == 0 || time.Since(start) < seconds {
		r.untraced = append(r.untraced, measure(func() passResult { return w.pass(seed, nil, false) }))
		if traced {
			from := len(rec.list)
			p := measure(func() passResult { return w.pass(seed, rec, true) })
			p.times = rec.layerTimesFrom(from)
			r.traced = append(r.traced, p)
		}
	}
	if rec != nil {
		r.spans = rec.list
	}
	want := r.untraced[0].digest
	for i, p := range append(append([]passResult(nil), r.untraced...), r.traced...) {
		r.attempted += p.attempted
		r.failed += p.failed
		r.errs = append(r.errs, p.errs...)
		if p.digest != want && p.failed < p.attempted {
			r.failed += p.attempted - p.failed
			r.errs = append(r.errs, fmt.Errorf("pass %d: digest %016x differs from the first pass's %016x", i, p.digest, want))
		}
	}
	return r
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// alignedMedians returns, for each step of a pass, the median of its
// durations across passes, in seconds. Passes repeat the same inputs, so
// step i is the same work in every pass; the median drops the pass in
// which a collection or a neighbour's burst happened to land on it.
func alignedMedians(ps []passResult, steps func(p passResult) []time.Duration) []float64 {
	n := len(steps(ps[0]))
	for _, p := range ps {
		n = min(n, len(steps(p)))
	}
	out := make([]float64, n)
	xs := make([]float64, len(ps))
	for i := range out {
		for j, p := range ps {
			xs[j] = steps(p)[i].Seconds()
		}
		out[i] = quantile(xs, 0.5)
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced run: medians
// over passes; set-up as the sum of each step's median; latency
// percentiles over the operations' medians. The second map holds the
// figures that exist only for some workloads (printed, not in the JSON
// result).
func endToEnd(r runResult) (map[string]value, map[string]value) {
	ps := r.untraced
	pick := func(f func(p passResult) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return quantile(xs, 0.5)
	}
	setup := 0.0
	for _, s := range alignedMedians(ps, func(p passResult) []time.Duration { return p.setup }) {
		setup += s
	}
	ops := alignedMedians(ps, func(p passResult) []time.Duration { return p.ops })
	for i := range ops {
		ops[i] *= 1e3
	}
	out := map[string]value{
		"wall_s":      {pick(func(p passResult) float64 { return p.wall.Seconds() }), "s"},
		"cpu_s":       {pick(func(p passResult) float64 { return p.cpu.Seconds() }), "s"},
		"setup_s":     {setup, "s"},
		"alloc_mb":    {pick(func(p passResult) float64 { return float64(p.alloc) / 1e6 }), "MB"},
		"peak_rss_mb": {peakRSS() / 1e6, "MB"},
		"op_p50_ms":   {quantile(ops, 0.5), "ms"},
		"ops":         {pick(func(p passResult) float64 { return float64(len(p.ops)) }), "count"},
	}
	extra := map[string]value{"ops_failed": {float64(r.failed), "count"}}
	if ps[0].events > 0 {
		extra["events_per_s"] = value{pick(func(p passResult) float64 { return float64(p.events) / p.wall.Seconds() }), "1/s"}
	}
	if len(ops) >= 1000 {
		extra["op_p99_ms"] = value{quantile(ops, 0.99), "ms"}
	}
	return out, extra
}

// perLayer computes the per-layer metrics of a traced run: for each
// traced pass, span times and layer counts, with host-resource figures
// from the untraced pass over the same inputs; then the median over
// passes.
func perLayer(w workload, r runResult) map[string]value {
	samples := map[string][]float64{}
	for i, tp := range r.traced {
		up := r.untraced[i]
		t := tp.times
		secs := func(name string) float64 { return t[name].total.Seconds() }
		m := map[string]float64{}
		for _, d := range perLayerMetrics {
			m[d.name] = tp.layer[d.name]
		}
		m["simnet.run_s"] = secs("simnet.run")
		m["simnet.events"] = float64(tp.events)
		if tp.events > 0 {
			// The engine runs inside simnet.run spans, or inside the
			// replay where sched.Run drives it.
			drive := t["simnet.run"].total + t["sched.run"].total
			m["simnet.ns_per_event"] = float64(drive) / float64(tp.events)
			m["runtime.alloc_bytes_per_event"] = float64(up.alloc) / float64(up.events)
		}
		m["runtime.gc_cycles"] = float64(up.gcCycles)
		m["runtime.gc_pause_ms"] = float64(up.gcPause) / 1e6
		m["cluster.new_s"] = secs("cluster.new")
		m["rm.start_s"] = secs("rm.start")
		for _, name := range rmNames {
			m["rm."+name+".run_s"] = secs("rm." + name)
		}
		m["estimate.refresh_s"] = secs("estimate.refresh")
		m["estimate.predict_s"] = secs("estimate.predict")
		m["estimate.complete_s"] = secs("estimate.complete")
		m["estimate.svm_s"] = secs("estimate.svm")
		m["estimate.forest_s"] = secs("estimate.forest")
		m["sched.run_s"] = secs("sched.run")
		m["sched.self_s"] = t["sched.run"].self.Seconds()
		m["sched.predictor_s"] = m["sched.run_s"] - m["sched.self_s"]
		m["trace.generate_s"] = secs("trace.generate")
		m["trace_overhead"] = tp.wall.Seconds() / up.wall.Seconds()
		m["predicted_layer_share"] = m[w.predicted] / tp.wall.Seconds()
		for _, d := range perLayerMetrics {
			samples[d.name] = append(samples[d.name], m[d.name])
		}
	}
	out := map[string]value{}
	for _, d := range perLayerMetrics {
		out[d.name] = value{quantile(samples[d.name], 0.5), d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// revision names the source the binary was built from.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: broadcast, broadcast-sharded, estimate or schedule")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "minimum measured duration; whole passes repeat until it has elapsed")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spansOut := fs.String("spans", "", "file for the traced run's host spans (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (broadcast, broadcast-sharded, estimate, schedule), -trace 0|1 and -seconds ≥ 1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(maxThreads, runtime.NumCPU()))
	traced := *trace == 1

	fmt.Fprintf(stdout, "# perfbench revision=%s go=%s num_cpu=%d gomaxprocs=%d\n",
		revision(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d held_out_seed=%d\n",
		w.name, *seed, *seconds, *trace, heldOutSeed)

	r := runWorkload(*w, *seed, time.Duration(*seconds)*time.Second, traced)
	for i, err := range r.errs {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... %d more errors\n", len(r.errs)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", err)
	}

	fmt.Fprintf(stdout, "# passes=%d digest=%016x\n", len(r.untraced), r.untraced[0].digest)
	var metrics map[string]value
	if traced {
		metrics = perLayer(*w, r)
		printMetrics(stdout, metrics, nil)
		out := *spansOut
		if out == "" {
			out = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
		}
		if err := writeSpans(out, r.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d host spans written to %s\n", len(r.spans), out)
		fmt.Fprintf(stdout, "# %s takes %.1f%% of the traced wall time\n", w.predicted, 100*metrics["predicted_layer_share"].Value)
	} else {
		var extra map[string]value
		metrics, extra = endToEnd(r)
		printMetrics(stdout, metrics, extra)
	}
	line, err := json.Marshal(result{
		Correct:   r.failed == 0 && len(r.errs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetrics writes one "name value unit" line per metric, sorted by
// name; extra figures are marked as outside the JSON result.
func printMetrics(w io.Writer, metrics, extra map[string]value) {
	names := make([]string, 0, len(metrics)+len(extra))
	for k := range metrics {
		names = append(names, k)
	}
	for k := range extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v, ok := metrics[k]; ok {
			fmt.Fprintf(w, "%-36s %16.6f %s\n", k, v.Value, v.Unit)
		} else {
			fmt.Fprintf(w, "%-36s %16.6f %s (printed only)\n", k, extra[k].Value, extra[k].Unit)
		}
	}
}
