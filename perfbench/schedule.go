package main

import (
	"fmt"
	"sort"
	"time"

	"eslurm/internal/estimate"
	"eslurm/internal/obs"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

// scheduleConfig sizes the one-week EASY-backfill replay.
type scheduleConfig struct {
	nodes int
	jobs  int
	days  int
	k     int
	parts int // independently seeded user populations merged into the trace
}

func defaultSchedule() scheduleConfig {
	return scheduleConfig{nodes: 1024, jobs: 32000, days: 7, k: 40, parts: 64}
}

// offeredLoad is the trace's node-hours as a share of the cluster's over
// the trace span: saturation.
const offeredLoad = 1.0

// weekTrace merges cfg.parts independently seeded Tianhe-2A user
// populations into one submission-ordered trace.
func weekTrace(cfg scheduleConfig, seed int64) []trace.Job {
	var jobs []trace.Job
	for p := 0; p < cfg.parts; p++ {
		gen := trace.Tianhe2AConfig(cfg.jobs / cfg.parts)
		gen.MaxNodes = cfg.nodes
		gen.Days = cfg.days
		gen.Seed = seed*int64(cfg.parts) + int64(p)
		for _, j := range trace.Generate(gen).Jobs {
			j.User = fmt.Sprintf("p%d.%s", p, j.User)
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs
}

// scaleLoad stretches every job's runtime and walltime request by one
// factor so the trace offers exactly offeredLoad. At a fixed job
// count the generator's offered load swings from a fifth of the cluster
// to fifteen times it between seeds; the scheduler's cost grows with the
// backlog that load builds, so without this the seed, not the code, would
// decide the workload's cost.
func scaleLoad(jobs []trace.Job, cfg scheduleConfig) {
	demand := 0.0
	for i := range jobs {
		demand += float64(jobs[i].Nodes) * jobs[i].Runtime.Hours()
	}
	if demand <= 0 {
		return
	}
	f := offeredLoad * float64(cfg.nodes*cfg.days*24) / demand
	for i := range jobs {
		j := &jobs[i]
		j.Runtime = max(time.Second, time.Duration(float64(j.Runtime)*f))
		j.UserEstimate = max(time.Second, time.Duration(float64(j.UserEstimate)*f))
	}
}

// overhead is the fixed closed-form RM overhead table: job load and
// termination latency grow linearly with the job's node count.
func overhead(nodes int) (load, term time.Duration) {
	return time.Second + time.Duration(nodes)*time.Millisecond,
		500*time.Millisecond + time.Duration(nodes)*500*time.Microsecond
}

// timedPredictor wraps the framework's walltime predictor to time its
// calls from outside and to mark each first submission. Each Walltime
// call starts one operation: the host time until the next submission.
type timedPredictor struct {
	inner  sched.WalltimePredictor
	f      *estimate.Framework
	rec    *recorder
	parent int

	last  time.Time
	ops   []time.Duration
	calls int
}

func (p *timedPredictor) Walltime(j *trace.Job) time.Duration {
	now := time.Now()
	p.ops = append(p.ops, now.Sub(p.last))
	p.last = now
	p.calls++
	p.rec.nextOp()
	gens := p.f.Generations
	sp := p.rec.begin("estimate.predict", p.parent)
	w := p.inner.Walltime(j)
	if p.f.Generations != gens {
		p.rec.endAs(sp, "estimate.refresh")
	} else {
		p.rec.end(sp)
	}
	return w
}

func (p *timedPredictor) JobDone(j *trace.Job) {
	sp := p.rec.begin("estimate.complete", p.parent)
	p.inner.JobDone(j)
	p.rec.end(sp)
}

// scheduleResult is what a replay produced, for the output checks.
type scheduleResult struct {
	jobs, calls                           int
	submitted, started, completed, killed int64
	res                                   sched.Result
}

// checkSchedule verifies the replay: every trace job was submitted once
// (plus one resubmission per first kill), every job ended completed or
// killed after its resubmission, and utilization is in (0,1].
func checkSchedule(r scheduleResult) error {
	if r.calls != r.jobs {
		return fmt.Errorf("%d first submissions for %d trace jobs", r.calls, r.jobs)
	}
	resubmits := r.submitted - int64(r.jobs)
	if resubmits < 0 || resubmits > r.killed {
		return fmt.Errorf("%d submissions for %d jobs with %d kills", r.submitted, r.jobs, r.killed)
	}
	if r.completed+(r.killed-resubmits) != int64(r.jobs) {
		return fmt.Errorf("%d completed + %d killed after resubmission != %d jobs", r.completed, r.killed-resubmits, r.jobs)
	}
	if int64(r.res.Completed) != r.completed || int64(r.res.Killed) != r.killed || r.started != r.submitted {
		return fmt.Errorf("result %d completed/%d killed disagrees with counters %d/%d (started %d, submitted %d)",
			r.res.Completed, r.res.Killed, r.completed, r.killed, r.started, r.submitted)
	}
	if !(r.res.Utilization > 0 && r.res.Utilization <= 1) {
		return fmt.Errorf("utilization %v not in (0,1]", r.res.Utilization)
	}
	return nil
}

// replay runs sched.Run, reporting a panic as an error: traces whose
// first submission precedes time zero make the engine panic.
func replay(jobs []trace.Job, cfg sched.Config) (res sched.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched.Run: %v", r)
		}
	}()
	return sched.Run(jobs, cfg), nil
}

// schedulePass replays a Tianhe-2A-calibrated week through EASY backfill
// with the framework predicting walltimes online. One submitted job is
// one operation; a failed check fails every operation of the pass.
func schedulePass(cfg scheduleConfig, seed int64, rec *recorder, simTrace bool) passResult {
	var res passResult
	res.layer = map[string]float64{}

	t0 := time.Now()
	sp := rec.begin("trace.generate", 0)
	jobs := weekTrace(cfg, seed)
	scaleLoad(jobs, cfg)
	rec.end(sp)
	f := estimate.NewFramework(estimate.FrameworkConfig{K: cfg.k})
	reg := obs.NewRegistry()
	f.SetObs(reg)
	pred := &timedPredictor{inner: sched.FrameworkWalltimes{F: f}, f: f, rec: rec}
	var eng *simnet.Engine
	sc := sched.Config{
		Nodes:       cfg.nodes,
		Policy:      sched.Backfill,
		Predictor:   pred,
		Overhead:    overhead,
		KillAtLimit: true,
		UtilWindow:  time.Duration(cfg.days) * 24 * time.Hour,
		Seed:        seed,
		OnEngine: func(e *simnet.Engine) {
			eng = e
			if simTrace {
				e.EnableTracing()
			}
		},
	}
	res.setup = []time.Duration{time.Since(t0)}

	run := rec.begin("sched.run", 0)
	pred.parent = run
	pred.last = time.Now()
	out, err := replay(jobs, sc)
	end := time.Now()
	rec.end(run)
	res.attempted = len(jobs)
	if err != nil {
		res.failed = len(jobs)
		res.errs = append(res.errs, err)
		return res
	}
	if n := len(pred.ops); n > 0 {
		// The last submission's operation runs until the replay returns.
		pred.ops[n-1] += end.Sub(pred.last)
	}
	res.ops = pred.ops

	c := readCounters(eng.Metrics())
	r := scheduleResult{
		jobs: len(jobs), calls: pred.calls,
		submitted: c["sched.submitted"], started: c["sched.started"],
		completed: c["sched.completed"], killed: c["sched.killed"],
		res: out,
	}
	if err := checkSchedule(r); err != nil {
		res.failed = len(jobs)
		res.errs = append(res.errs, err)
	}
	res.events = eng.Processed()
	res.layer["sched.started"] = float64(r.started)
	res.layer["sched.completed"] = float64(r.completed)
	res.layer["sched.killed"] = float64(r.killed)
	res.layer["estimate.refreshes"] = float64(f.Generations)
	if pred.calls > 0 {
		res.layer["estimate.model_used_ratio"] = float64(readCounters(reg)["estimate.model_used"]) / float64(pred.calls)
	}

	dg := newDigest()
	dg.int(int64(len(jobs)))
	dg.int(int64(res.events))
	for _, v := range []int64{r.submitted, r.started, r.completed, r.killed,
		int64(out.AvgWait), int64(out.P95Wait), int64(out.Makespan)} {
		dg.int(v)
	}
	for _, v := range []float64{out.Utilization, out.AvgBoundedSlowdown, out.MaxBoundedSlowdown} {
		dg.float(v)
	}
	res.digest = dg.sum()
	return res
}
