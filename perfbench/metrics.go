package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are the figures a user of the simulator sees, reported
// with tracing off. Each is positive on every workload.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"ops", "count", "higher"},
}

// perLayerMetrics are the traced run's figures, grouped by module. A
// layer a workload does not reach reports 0.
var perLayerMetrics = []metricDef{
	{"simnet.run_s", "s", "lower"},
	{"simnet.events", "count", "lower"},
	{"simnet.ns_per_event", "ns", "lower"},
	{"simnet.cell_events_max_share", "ratio", "lower"},
	{"runtime.alloc_bytes_per_event", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"cluster.new_s", "s", "lower"},
	{"rm.start_s", "s", "lower"},
	{"rm.SGE.run_s", "s", "lower"},
	{"rm.Torque.run_s", "s", "lower"},
	{"rm.OpenPBS.run_s", "s", "lower"},
	{"rm.LSF.run_s", "s", "lower"},
	{"rm.Slurm.run_s", "s", "lower"},
	{"rm.ESlurm.run_s", "s", "lower"},
	{"comm.messages", "count", "lower"},
	{"comm.retries", "count", "lower"},
	{"comm.delivered", "count", "higher"},
	{"comm.unreachable", "count", "lower"},
	{"comm.delivered_per_message", "ratio", "higher"},
	{"master.subtasks", "count", "lower"},
	{"master.reallocations", "count", "lower"},
	{"master.takeovers", "count", "lower"},
	{"fptree.builds", "count", "lower"},
	{"fptree.rebuilds", "count", "lower"},
	{"estimate.refresh_s", "s", "lower"},
	{"estimate.refreshes", "count", "lower"},
	{"estimate.predict_s", "s", "lower"},
	{"estimate.complete_s", "s", "lower"},
	{"estimate.model_used_ratio", "ratio", "higher"},
	{"estimate.svm_s", "s", "lower"},
	{"estimate.forest_s", "s", "lower"},
	{"sched.run_s", "s", "lower"},
	{"sched.self_s", "s", "lower"},
	{"sched.predictor_s", "s", "lower"},
	{"sched.started", "count", "higher"},
	{"sched.completed", "count", "higher"},
	{"sched.killed", "count", "lower"},
	{"trace.generate_s", "s", "lower"},
	{"trace_overhead", "ratio", "lower"},
	{"predicted_layer_share", "ratio", "higher"},
}

// digest is an FNV-64a hash over a pass's simulated outputs.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digest) sum() uint64 { return d.h.Sum64() }
