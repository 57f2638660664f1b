package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"eslurm/internal/estimate"
	"eslurm/internal/sched"
)

// smallWorkloads are the four workloads at sizes that run in well under
// a second each, so the tests exercise the real passes.
func smallWorkloads() []workload {
	bc := broadcastConfig{nodes: 128, sizes: []int{16, 64}, failFrac: 0.1}
	sc := bc
	sc.sharded = true
	return []workload{
		{"broadcast", "simnet.run_s", func(seed int64, rec *recorder, simTrace bool) passResult {
			return broadcastPass(bc, seed, rec, simTrace)
		}},
		{"broadcast-sharded", "simnet.run_s", func(seed int64, rec *recorder, simTrace bool) passResult {
			return broadcastPass(sc, seed, rec, simTrace)
		}},
		{"estimate", "estimate.refresh_s", func(seed int64, rec *recorder, _ bool) passResult {
			return estimatePass(estimateConfig{jobs: 300, alphas: []float64{1.05}, k: 5}, seed, rec)
		}},
		{"schedule", "sched.self_s", func(seed int64, rec *recorder, simTrace bool) passResult {
			return schedulePass(scheduleConfig{nodes: 64, jobs: 400, days: 1, k: 5, parts: 2}, seed, rec, simTrace)
		}},
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a := w.pass(1, nil, false)
			b := w.pass(1, nil, false)
			c := w.pass(2, nil, false)
			if a.failed != 0 || c.failed != 0 || a.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v %v", a.failed, a.attempted, a.errs, c.errs)
			}
			if a.digest != b.digest {
				t.Errorf("same seed, digests %016x and %016x", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 1 and 2 share digest %016x", a.digest)
			}
			// Tracing observes the simulation without changing it.
			if d := w.pass(1, newRecorder(), true); d.digest != a.digest || d.failed != 0 {
				t.Errorf("traced pass: digest %016x (untraced %016x), errors %v", d.digest, a.digest, d.errs)
			}
		})
	}
}

func TestProbeCheckRejectsCorruption(t *testing.T) {
	cfg := broadcastConfig{nodes: 128, sizes: []int{64}, failFrac: 0.1}
	for _, sharded := range []bool{false, true} {
		probe := probeSingle
		if sharded {
			probe = probeSharded
		}
		p, _ := probe(cfg, "ESlurm", 64, []int{3, 40}, 1, nil, true)
		if err := checkProbe(p); err != nil {
			t.Fatalf("sharded=%v: valid probe rejected: %v", sharded, err)
		}
		if len(p.broadcasts) == 0 {
			t.Fatalf("sharded=%v: traced probe recorded no broadcasts", sharded)
		}
		corrupt := map[string]func(q *probeResult){
			"load never fired":   func(q *probeResult) { q.loadFired = false },
			"load past horizon":  func(q *probeResult) { q.load = horizon + 1 },
			"term never fired":   func(q *probeResult) { q.termFired = false },
			"zero term":          func(q *probeResult) { q.term = 0 },
			"send outstanding":   func(q *probeResult) { q.counters["comm.outstanding_sends"] = 1 },
			"resolved twice":     func(q *probeResult) { q.counters["comm.delivered"] = q.counters["comm.messages"] },
			"too few deliveries": func(q *probeResult) { q.counters["comm.delivered"] = 1 },
			"target lost":        func(q *probeResult) { q.broadcasts[0].delivered-- },
			"broadcast open":     func(q *probeResult) { q.broadcasts[0].ended = false },
		}
		for name, f := range corrupt {
			q := p
			q.counters = map[string]int64{}
			for k, v := range p.counters {
				q.counters[k] = v
			}
			q.broadcasts = append([]broadcastSpan(nil), p.broadcasts...)
			f(&q)
			if checkProbe(q) == nil {
				t.Errorf("sharded=%v: %s: corrupted probe accepted", sharded, name)
			}
		}
	}
}

func TestEstimateChecksRejectCorruption(t *testing.T) {
	if err := checkPrediction(estimate.Prediction{Used: time.Hour}); err != nil {
		t.Fatalf("valid prediction rejected: %v", err)
	}
	for _, used := range []time.Duration{0, -time.Second} {
		if checkPrediction(estimate.Prediction{Used: used}) == nil {
			t.Errorf("Used %v accepted", used)
		}
	}
	ok := accuracy{name: "x", aea: 0.8, ur: 0.3, coverage: 1}
	if err := checkAccuracy(ok); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	for _, bad := range []accuracy{
		{aea: 1.2, ur: 0.3, coverage: 0.5},
		{aea: 0.8, ur: -0.1, coverage: 0.5},
		{aea: 0.8, ur: 0.3, coverage: 1.5},
		{aea: math.NaN(), ur: 0.3, coverage: 0.5},
	} {
		if checkAccuracy(bad) == nil {
			t.Errorf("summary %+v accepted", bad)
		}
	}
}

func TestScheduleCheckRejectsCorruption(t *testing.T) {
	// 10 jobs: 2 killed, resubmitted, of which 1 was killed again.
	valid := scheduleResult{
		jobs: 10, calls: 10, submitted: 12, started: 12, completed: 9, killed: 3,
		res: sched.Result{Completed: 9, Killed: 3, Utilization: 0.7},
	}
	if err := checkSchedule(valid); err != nil {
		t.Fatalf("valid replay rejected: %v", err)
	}
	corrupt := map[string]func(r *scheduleResult){
		"job never submitted":   func(r *scheduleResult) { r.calls = 9 },
		"job lost":              func(r *scheduleResult) { r.completed, r.res.Completed = 8, 8 },
		"resubmit without kill": func(r *scheduleResult) { r.submitted, r.started = 14, 14 },
		"counter disagrees":     func(r *scheduleResult) { r.res.Completed = 10 },
		"job never started":     func(r *scheduleResult) { r.started = 11 },
		"zero utilization":      func(r *scheduleResult) { r.res.Utilization = 0 },
		"utilization above 1":   func(r *scheduleResult) { r.res.Utilization = 1.01 },
	}
	for name, f := range corrupt {
		r := valid
		f(&r)
		if checkSchedule(r) == nil {
			t.Errorf("%s: corrupted replay accepted", name)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	var built []string
	for _, w := range workloads() {
		built = append(built, w.name)
	}
	sameSet(t, "workloads", built, declared)
	sameDefs(t, "end_to_end", endToEndMetrics, bf.EndToEnd)
	sameDefs(t, "per_layer", perLayerMetrics, bf.PerLayer)

	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range smallWorkloads() {
		r := runWorkload(w, 1, 0, true)
		if r.failed != 0 {
			t.Fatalf("%s: %v", w.name, r.errs)
		}
		e2e, extra := endToEnd(r)
		layer := perLayer(w, r)
		for _, m := range []map[string]value{e2e, extra, layer} {
			for name := range m {
				if !valid.MatchString(name) {
					t.Errorf("%s: printed name %q", w.name, name)
				}
			}
		}
		for name, v := range e2e {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want positive", w.name, name, v.Value)
			}
		}
		sameSet(t, w.name+" end_to_end", keys(e2e), names(bf.EndToEnd))
		sameSet(t, w.name+" per_layer", keys(layer), names(bf.PerLayer))
	}
}

func sameDefs(t *testing.T, what string, defs []metricDef, js []metricJSON) {
	t.Helper()
	if len(defs) != len(js) {
		t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(defs), len(js))
		return
	}
	for i, d := range defs {
		if j := js[i]; d.name != j.Name || d.unit != j.Unit || d.better != j.Better {
			t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", what, i, d, j)
		}
	}
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: got %v, want %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %v, want %v", what, got, want)
			return
		}
	}
}

func keys(m map[string]value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func names(ms []metricJSON) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func TestLayerTimesSubtractChildren(t *testing.T) {
	r := &recorder{list: []hostSpan{
		{ID: 1, Name: "sched.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "estimate.predict", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "estimate.complete", Start: 50, End: 55},
		{ID: 4, Name: "trace.generate", Start: 100, End: 110},
	}}
	lt := r.layerTimesFrom(0)
	if got := lt["sched.run"]; got.total != 100 || got.self != 75 {
		t.Errorf("sched.run total %v self %v, want 100 and 75", got.total, got.self)
	}
	if got := lt["estimate.predict"]; got.total != 20 || got.self != 20 {
		t.Errorf("estimate.predict total %v self %v", got.total, got.self)
	}
	if got := r.layerTimesFrom(3)["sched.run"]; got.total != 0 {
		t.Errorf("spans before the index counted: %+v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
}
