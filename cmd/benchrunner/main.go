// Command benchrunner regenerates the paper's tables and figures from the
// simulated reproduction. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md §3 for the experiment index).
//
// Experiments are independent simulations, so they execute on a worker
// pool (-parallel, default GOMAXPROCS); tables are still printed to
// stdout in registry order, byte-identical to a serial run. Progress and
// timing go to stderr so stdout stays a stable artifact.
//
// Usage:
//
//	benchrunner -list                 # show available experiments
//	benchrunner -exp fig8b            # run one experiment (quick preset)
//	benchrunner -exp fig10 -paper     # run at the paper's full scale
//	benchrunner -all                  # run every experiment
//	benchrunner -all -parallel 4      # ...on exactly 4 workers
//	benchrunner -all -json            # ...and write BENCH_quick.json
//	benchrunner -all -jsonout f.json  # ...perf record to f.json (CI gate)
//	benchrunner -exp fig7f -shards 4  # rack cells on 4 window workers
//	benchrunner -exp fig8b -trace t.json   # Chrome trace of every engine
//	benchrunner -exp fig8b -metrics        # dump each engine's registry
//	benchrunner -exp fig7f -critpath cp.txt  # critical-path attribution
//
// -critpath arms span recording on every engine and writes the
// deterministic critical-path report (internal/obs/critpath) for the
// whole run: per experiment × root-span kind, top-K slowest paths,
// per-kind time attribution, retry/rebuild share. Same flags →
// byte-identical file; diff two runs with `critdiff a.txt b.txt`.
// `benchrunner -spans` prints the span/metric taxonomy tables that
// OBSERVABILITY.md embeds (and docs_test.go byte-gates).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"eslurm/internal/experiment"
	"eslurm/internal/obs"
	"eslurm/internal/simnet"
	"eslurm/internal/simnet/benchkit"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment ID to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		paper    = flag.Bool("paper", false, "use the paper-scale preset (slow: full node counts)")
		list     = flag.Bool("list", false, "list available experiments")
		csvDir   = flag.String("csv", "", "also write the Fig. 7/9 time-series CSVs into this directory")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker-pool size (tables always print in registry order)")
		jsonOut  = flag.Bool("json", false, "write a BENCH_<preset>.json perf record (suite stats + kernel microbench)")
		jsonPath = flag.String("jsonout", "", "write the perf record to this path instead of BENCH_<preset>.json (implies -json); lets CI produce a fresh record without clobbering the committed baseline")
		trace    = flag.String("trace", "", "write a Chrome trace_event JSON of every engine to this file (forces serial execution)")
		metrics  = flag.Bool("metrics", false, "dump each engine's metrics registry to stdout (forces serial execution)")
		critPath = flag.String("critpath", "", "write the deterministic critical-path report of every engine to this file (forces serial execution)")
		spans    = flag.Bool("spans", false, "print the span and metric taxonomy tables (the generated half of OBSERVABILITY.md) and exit")
		shards   = flag.Int("shards", 0, "run shard-aware experiments (fig7f, fig10) on rack cells with N window workers (0 = one cell)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, s := range experiment.Registry() {
			fmt.Printf("  %-10s %s\n", s.ID, s.Artifact)
		}
		return
	}
	if *spans {
		// The exact blocks OBSERVABILITY.md embeds; docs_test.go byte-gates
		// them, so paste this output verbatim when the taxonomy changes.
		fmt.Print(obs.SpanTaxonomyMarkdown())
		fmt.Println()
		fmt.Print(obs.MetricTaxonomyMarkdown())
		return
	}

	params := experiment.QuickParams()
	preset := "quick"
	if *paper {
		params = experiment.PaperParams()
		preset = "paper"
	}
	params.Shards = *shards

	if *csvDir != "" {
		fmt.Fprintf(os.Stderr, "-- writing figure time series to %s\n", *csvDir)
		if err := experiment.WriteFigureSeries(*csvDir, params); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *expID == "" && !*all {
			return
		}
	}

	var specs []experiment.Spec
	switch {
	case *all:
		specs = experiment.Registry()
	case *expID != "":
		s, ok := experiment.Lookup(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *expID)
			os.Exit(1)
		}
		specs = []experiment.Spec{s}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if p, warn := serialOverride(*parallel, *trace != "", *metrics, *critPath != ""); p != *parallel || warn != "" {
		*parallel = p
		if warn != "" {
			fmt.Fprintln(os.Stderr, warn)
		}
	}
	emit := func(r experiment.Result) {
		fmt.Fprintf(os.Stderr, "-- %s (%s) done in %s: %d events, %.0f events/s\n",
			r.Spec.ID, r.Spec.Artifact, r.Wall.Round(time.Millisecond), r.Events, r.EventsPerSec())
		for _, tb := range r.Tables {
			tb.Fprint(os.Stdout)
		}
	}

	fmt.Fprintf(os.Stderr, "-- %d experiment(s), %s preset, %d worker(s)\n", len(specs), preset, *parallel)
	suiteStart := time.Now()
	var results []experiment.Result
	if *trace != "" || *metrics || *critPath != "" {
		results = runObserved(specs, params, *trace, *critPath, *metrics, emit)
	} else {
		results = experiment.RunConcurrent(specs, params, *parallel, emit)
	}
	suiteWall := time.Since(suiteStart)
	fmt.Fprintf(os.Stderr, "-- suite done in %s\n", suiteWall.Round(time.Millisecond))

	if *jsonOut || *jsonPath != "" {
		path := *jsonPath
		if path == "" {
			path = "BENCH_" + preset + ".json"
		}
		if err := writePerfRecord(path, preset, *parallel, *shards, suiteWall, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "-- wrote %s\n", path)
	}
}

// serialOverride resolves the worker-pool size when an observability flag
// is set: engine collection is goroutine-scoped, so -trace, -metrics and
// -critpath force the experiments onto the calling goroutine. When that
// overrides a multi-worker request (including the GOMAXPROCS default),
// the returned warning says so on stderr instead of silently dropping the
// parallelism.
func serialOverride(parallel int, trace, metrics, critpath bool) (int, string) {
	if !trace && !metrics && !critpath {
		return parallel, ""
	}
	if parallel == 1 {
		return 1, ""
	}
	var set []string
	if trace {
		set = append(set, "-trace")
	}
	if metrics {
		set = append(set, "-metrics")
	}
	if critpath {
		set = append(set, "-critpath")
	}
	return 1, fmt.Sprintf("-- %s forces serial execution (engine collection is goroutine-scoped); overriding -parallel %d",
		strings.Join(set, " and "), parallel)
}

// runObserved executes specs serially on the calling goroutine, arming
// tracing on every engine each experiment constructs (simnet.CollectEngines
// fires before any event runs, so spans cover from virtual time zero).
// The Chrome file gets one process per engine — pid is the engine's index
// across the whole run, the process name carries the experiment ID and the
// engine's seed — and -metrics dumps each engine's registry in the same
// order. -critpath feeds the same engines, with the same labels, through
// experiment.CritpathReport. Engines record passively, so tables stay
// byte-identical to an untraced run.
func runObserved(specs []experiment.Spec, params experiment.Params, tracePath, critPath string, metrics bool, emit func(experiment.Result)) []experiment.Result {
	var all []experiment.TracedEngine
	results := make([]experiment.Result, 0, len(specs))
	for _, s := range specs {
		start := time.Now()
		var tables []*experiment.Table
		engines := simnet.CollectEngines(func(e *simnet.Engine) {
			if tracePath != "" || critPath != "" {
				e.EnableTracing()
			}
		}, func() { tables = s.Run(params) })
		r := experiment.Result{Spec: s, Tables: tables, Wall: time.Since(start)}
		for _, e := range engines {
			r.Events += e.Processed()
			all = append(all, experiment.TracedEngine{Exp: s.ID, E: e})
		}
		results = append(results, r)
		if emit != nil {
			emit(r)
		}
	}

	if tracePath != "" {
		procs := make([]obs.Process, 0, len(all))
		for i, o := range all {
			procs = append(procs, obs.Process{
				PID:  i,
				Name: fmt.Sprintf("%s engine %d seed %d", o.Exp, i, o.E.Seed()),
				T:    o.E.Tracer(),
			})
		}
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.WriteChrome(f, procs...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "-- trace: %d engine(s) -> %s\n", len(procs), tracePath)
	}
	if critPath != "" {
		rep := experiment.CritpathReport(all, 5)
		f, err := os.Create(critPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rep.WriteText(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "-- critpath: %d source(s) -> %s\n", rep.Sources, critPath)
	}
	if metrics {
		for i, o := range all {
			fmt.Printf("metrics %s engine %d seed %d:\n", o.Exp, i, o.E.Seed())
			o.E.Metrics().WriteText(os.Stdout)
		}
	}
	return results
}

// A perfRecord is the benchmark trajectory the repo commits per preset:
// regenerate with `go run ./cmd/benchrunner -all -json [-paper]` and
// compare against the committed BENCH_<preset>.json (see the
// "Performance" section of DESIGN.md).
type perfRecord struct {
	Preset string `json:"preset"`
	// Parallel is the experiment worker-pool size actually used (after any
	// serial override); Shards is the -shards setting: the window worker
	// count for shard-aware experiments, 0 for the legacy kernel.
	Parallel     int          `json:"parallel"`
	Shards       int          `json:"shards"`
	GoVersion    string       `json:"go_version"`
	GOOS         string       `json:"goos"`
	GOARCH       string       `json:"goarch"`
	NumCPU       int          `json:"num_cpu"`
	SuiteWallMS  float64      `json:"suite_wall_ms"`
	TotalEvents  uint64       `json:"total_events"`
	EventsPerSec float64      `json:"events_per_sec"`
	Experiments  []expRecord  `json:"experiments"`
	Kernel       []benchEntry `json:"kernel_microbench"`
}

type expRecord struct {
	ID       string  `json:"id"`
	Artifact string  `json:"artifact"`
	WallMS   float64 `json:"wall_ms"`
	Events   uint64  `json:"events"`
	// Shards is the shard worker count this experiment actually ran with:
	// the -shards setting for shard-aware experiments, 0 for experiments
	// that always run the single-engine path.
	Shards       int     `json:"shards"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Seed* record the same benchmark measured on the pre-optimization
	// kernel (commit 1aa33b8: container/heap + per-event allocation +
	// unmemoized Rand) on the reference machine, so the record carries
	// the seed-vs-optimized trajectory.
	SeedNsPerOp     float64 `json:"seed_ns_per_op"`
	SeedAllocsPerOp int64   `json:"seed_allocs_per_op"`
	SeedBytesPerOp  int64   `json:"seed_bytes_per_op"`
}

// seedKernelBaseline is the reference measurement of the pre-optimization
// kernel (Intel Xeon 2.10GHz, go1.24, linux/amd64, -benchtime=2s):
// ns/op, allocs/op, B/op.
var seedKernelBaseline = map[string][3]float64{
	"EngineStep":           {218.8, 1, 48},
	"EngineScheduleCancel": {124.1, 2, 96},
	"EngineRand":           {12543, 4, 5448},
}

func writePerfRecord(path, preset string, parallel, shards int, suiteWall time.Duration, results []experiment.Result) error {
	rec := perfRecord{
		Preset:      preset,
		Parallel:    parallel,
		Shards:      shards,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		SuiteWallMS: float64(suiteWall.Microseconds()) / 1e3,
	}
	for _, r := range results {
		rec.TotalEvents += r.Events
		expShards := 0
		if experiment.ShardAware(r.Spec.ID) {
			expShards = shards
		}
		rec.Experiments = append(rec.Experiments, expRecord{
			ID:           r.Spec.ID,
			Artifact:     r.Spec.Artifact,
			WallMS:       float64(r.Wall.Microseconds()) / 1e3,
			Events:       r.Events,
			Shards:       expShards,
			EventsPerSec: r.EventsPerSec(),
		})
	}
	if suiteWall > 0 {
		rec.EventsPerSec = float64(rec.TotalEvents) / suiteWall.Seconds()
	}
	fmt.Fprintln(os.Stderr, "-- running kernel microbenchmarks")
	for _, kb := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EngineStep", benchkit.Step},
		{"EngineScheduleCancel", benchkit.ScheduleCancel},
		{"EngineRand", benchkit.Rand},
	} {
		br := testing.Benchmark(kb.fn)
		seed := seedKernelBaseline[kb.name]
		rec.Kernel = append(rec.Kernel, benchEntry{
			Name:            kb.name,
			NsPerOp:         float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp:     br.AllocsPerOp(),
			BytesPerOp:      br.AllocedBytesPerOp(),
			SeedNsPerOp:     seed[0],
			SeedAllocsPerOp: int64(seed[1]),
			SeedBytesPerOp:  int64(seed[2]),
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
