package main

import (
	"fmt"
	"math"
	"time"

	"eslurm/internal/estimate"
	"eslurm/internal/trace"
)

// estimateConfig sizes the offline estimator replay.
type estimateConfig struct {
	jobs   int
	alphas []float64
	k      int
}

func defaultEstimate() estimateConfig {
	return estimateConfig{jobs: 3000, alphas: []float64{1.00, 1.05, 1.08}, k: 40}
}

// accuracy is one estimator's replay summary: average estimation
// accuracy, underestimate rate and coverage, each a share in [0,1].
type accuracy struct {
	name              string
	aea, ur, coverage float64
}

// checkAccuracy rejects a summary whose shares leave [0,1].
func checkAccuracy(a accuracy) error {
	for _, v := range []float64{a.aea, a.ur, a.coverage} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("%s: AEA %v, UR %v, coverage %v not all in [0,1]", a.name, a.aea, a.ur, a.coverage)
		}
	}
	return nil
}

// checkPrediction rejects a prediction that gives the scheduler no
// positive walltime to plan with.
func checkPrediction(p estimate.Prediction) error {
	if p.Used <= 0 {
		return fmt.Errorf("used walltime %v is not positive", p.Used)
	}
	return nil
}

// estimatePass replays an NG-Tianhe trace through the framework at each
// α, calling Predict then Complete per job, then runs the baselines. One
// Predict is one operation; a Predict whose Used walltime is not positive
// fails, and an out-of-range summary fails every operation of the pass.
func estimatePass(cfg estimateConfig, seed int64, rec *recorder) passResult {
	var res passResult
	res.layer = map[string]float64{}
	dg := newDigest()

	t0 := time.Now()
	sp := rec.begin("trace.generate", 0)
	gen := trace.NGTianheConfig(cfg.jobs)
	gen.Seed = seed
	jobs := trace.Generate(gen).Jobs
	rec.end(sp)
	res.setup = append(res.setup, time.Since(t0))

	var accs []accuracy
	used := 0
	for _, alpha := range cfg.alphas {
		t0 := time.Now()
		f := estimate.NewFramework(estimate.FrameworkConfig{K: cfg.k, Alpha: alpha})
		res.setup = append(res.setup, time.Since(t0))
		acc := accuracy{name: fmt.Sprintf("ESlurm α=%.2f", alpha)}
		covered, under := 0, 0
		for i := range jobs {
			j := jobs[i]
			rec.nextOp()
			gens := f.Generations
			t := time.Now()
			sp := rec.begin("estimate.predict", 0)
			p := f.Predict(&j)
			if f.Generations != gens {
				rec.endAs(sp, "estimate.refresh")
			} else {
				rec.end(sp)
			}
			res.ops = append(res.ops, time.Since(t))
			if err := checkPrediction(p); err != nil {
				res.failed++
				res.errs = append(res.errs, fmt.Errorf("%s job %d: %w", acc.name, j.ID, err))
			}
			if p.UsedModel {
				used++
			}
			if p.Model > 0 && p.UsedModel {
				covered++
				acc.aea += estimate.EA(p.Model, j.Runtime)
				if p.Model < j.Runtime {
					under++
				}
			}
			dg.int(int64(p.Used))
			dg.int(int64(p.Cluster))
			sp = rec.begin("estimate.complete", 0)
			f.Complete(&j)
			rec.end(sp)
		}
		if covered > 0 {
			acc.aea /= float64(covered)
			acc.ur = float64(under) / float64(covered)
			acc.coverage = float64(covered) / float64(len(jobs))
		}
		res.layer["estimate.refreshes"] += float64(f.Generations)
		accs = append(accs, acc)
	}
	if n := len(res.ops); n > 0 {
		res.layer["estimate.model_used_ratio"] = float64(used) / float64(n)
	}

	sp = rec.begin("estimate.svm", 0)
	svm := estimate.Evaluate(estimate.NewSVM(), jobs)
	rec.end(sp)
	sp = rec.begin("estimate.forest", 0)
	rf := estimate.Evaluate(estimate.NewRandomForest(seed), jobs)
	rec.end(sp)
	for _, r := range []estimate.EvalResult{svm, rf} {
		accs = append(accs, accuracy{name: r.Estimator, aea: r.AEA, ur: r.UnderestimateRate, coverage: r.Coverage})
	}
	res.attempted = len(res.ops)
	for _, a := range accs {
		if err := checkAccuracy(a); err != nil {
			res.failed = len(res.ops)
			res.errs = append(res.errs, err)
		}
		dg.float(a.aea)
		dg.float(a.ur)
		dg.float(a.coverage)
	}
	res.digest = dg.sum()
	return res
}
