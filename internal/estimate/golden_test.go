package estimate

import (
	"hash/fnv"
	"math"
	"testing"

	"eslurm/internal/trace"
)

// TestFrameworkReplayGolden pins the framework's online output on an
// NG-Tianhe replay — every prediction's Used walltime and matched cluster
// — and the global-SVM baseline's summary, bit for bit. The mlkit kernels
// under the refreshes (K-means++, per-cluster SVR) are tuned for speed by
// exact rewrites only; a changed digest here means changed estimates.
func TestFrameworkReplayGolden(t *testing.T) {
	jobs := trace.Generate(trace.NGTianheConfig(1200)).Jobs
	f := NewFramework(FrameworkConfig{K: 40})
	h := fnv.New64a()
	var buf [16]byte
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	for i := range jobs {
		j := jobs[i]
		p := f.Predict(&j)
		put(0, uint64(p.Used))
		put(8, uint64(int64(p.Cluster)))
		h.Write(buf[:])
		f.Complete(&j)
	}
	const (
		wantDigest = 0x86db93ea9a7eea1e
		wantGens   = 36
	)
	if got := h.Sum64(); got != wantDigest || f.Generations != wantGens {
		t.Errorf("replay digest %#016x after %d generations; want %#016x after %d", got, f.Generations, uint64(wantDigest), wantGens)
	}

	svm := Evaluate(NewSVM(), jobs)
	got := [3]uint64{math.Float64bits(svm.AEA), math.Float64bits(svm.UnderestimateRate), math.Float64bits(svm.Coverage)}
	want := [3]uint64{0x3fe69c757e90fd71, 0x3fdf49f49f49f49f, 0x3fe8000000000000}
	if got != want {
		t.Errorf("SVM summary bits (AEA, UR, coverage) = %#016x; want %#016x", got, want)
	}
}
