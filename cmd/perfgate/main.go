// Command perfgate is the performance-trajectory CI gate: it compares a
// fresh `benchrunner -json` record against the committed baseline
// (BENCH_<preset>.json) and exits 1 on any regression beyond the noise
// tolerance — a suite-throughput drop, a per-experiment throughput drop
// (wall-time growth for experiments with no simulated events), a
// kernel-microbenchmark slowdown, or any new per-op allocation (which
// gets zero tolerance, since allocation counts are machine-independent).
//
// Usage:
//
//	benchrunner -all -jsonout fresh.json
//	perfgate -base BENCH_quick.json -fresh fresh.json
//
// When the two records disagree on num_cpu or platform, timing checks
// are demoted to notes and only allocation counts gate, so a laptop
// refresh can never be judged against a CI-runner baseline.
package main

import (
	"flag"
	"fmt"
	"os"

	"eslurm/internal/perfgate"
)

func main() {
	base := flag.String("base", "BENCH_quick.json", "committed baseline record (benchrunner -json output)")
	fresh := flag.String("fresh", "", "fresh record to judge (required)")
	suiteTol := flag.Float64("suite-tol", perfgate.DefaultSuiteTol, "allowed fractional suite-throughput drop")
	expTol := flag.Float64("exp-tol", perfgate.DefaultExperimentTol, "allowed fractional per-experiment throughput drop")
	microTol := flag.Float64("micro-tol", perfgate.DefaultMicrobenchTol, "allowed fractional kernel-microbenchmark ns/op growth")
	flag.Parse()

	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -fresh is required")
		flag.Usage()
		os.Exit(2)
	}
	baseRec, err := perfgate.Load(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	freshRec, err := perfgate.Load(*fresh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	rep := perfgate.Compare(baseRec, freshRec, perfgate.Tolerance{
		Suite: *suiteTol, Experiment: *expTol, Microbench: *microTol,
	})
	fmt.Print(rep)
	if rep.Regressions() > 0 {
		os.Exit(1)
	}
}
