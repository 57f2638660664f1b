package trace

import (
	"math/rand"
	"testing"
	"time"
)

func TestGeneratedTraceValidates(t *testing.T) {
	for _, cfg := range []GenConfig{Tianhe2AConfig(5000), NGTianheConfig(5000)} {
		tr := Generate(cfg)
		if len(tr.Jobs) != 5000 {
			t.Fatalf("%s: generated %d jobs, want 5000", cfg.System, len(tr.Jobs))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.System, err)
		}
		if tr.Duration() <= 0 {
			t.Errorf("%s: zero duration", cfg.System)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Tianhe2AConfig(500))
	b := Generate(Tianhe2AConfig(500))
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatal("same config produced different traces")
		}
	}
}

func TestGenerateEmpty(t *testing.T) {
	tr := Generate(GenConfig{System: "x"})
	if len(tr.Jobs) != 0 {
		t.Error("zero-job config must produce an empty trace")
	}
}

func TestOverestimationCalibration(t *testing.T) {
	// Paper, Fig. 5a: "around 80-90% of the job runtime were overestimated
	// by users."
	tr := Generate(Tianhe2AConfig(20000))
	f := tr.OverestimateFraction()
	if f < 0.78 || f > 0.92 {
		t.Errorf("overestimate fraction = %.3f, want 0.80-0.90", f)
	}
}

func TestPCDFMonotone(t *testing.T) {
	tr := Generate(NGTianheConfig(5000))
	ths := []float64{0.5, 1, 2, 4, 8, 16}
	cdf := tr.PCDF(ths)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone: %v", cdf)
		}
	}
	if cdf[len(cdf)-1] < 0.9 {
		t.Errorf("CDF(16) = %v, want most jobs below 16x overestimation", cdf[len(cdf)-1])
	}
	// CDF at P=1 is the complement of the overestimate fraction.
	want := 1 - tr.OverestimateFraction()
	if diff := cdf[1] - want; diff > 0.02 || diff < -0.02 {
		t.Errorf("CDF(1) = %v vs 1-overest = %v", cdf[1], want)
	}
}

func TestEveningLongJobCalibration(t *testing.T) {
	// Paper: "71.4% of jobs requiring a runtime longer than six hours were
	// submitted between 6 pm and 12 am."
	tr := Generate(Tianhe2AConfig(20000))
	f := tr.LongJobEveningFraction()
	if f < 0.6 || f > 0.85 {
		t.Errorf("evening fraction of long jobs = %.3f, want ~0.71", f)
	}
}

func TestResubmissionCalibration(t *testing.T) {
	// Paper: "an average 89.2% probability for a user to submit the same
	// job that the user has submitted in the past 24 hours."
	// The mature system lands slightly above the paper's cross-trace
	// average, the young one slightly below; assert both stay in a band
	// around 0.89.
	for _, cfg := range []GenConfig{Tianhe2AConfig(20000), NGTianheConfig(20000)} {
		f := Generate(cfg).ResubmissionProbability24h()
		if f < 0.80 || f > 0.98 {
			t.Errorf("%s: 24h resubmission probability = %.3f, want ~0.89", cfg.System, f)
		}
	}
}

func TestCorrelatedDefinition(t *testing.T) {
	a := &Job{Name: "cfd", Nodes: 100, Runtime: time.Hour}
	cases := []struct {
		b    Job
		want bool
	}{
		{Job{Name: "cfd", Nodes: 100, Runtime: time.Hour}, true},
		{Job{Name: "other", Nodes: 100, Runtime: time.Hour}, false},
		{Job{Name: "cfd", Nodes: 130, Runtime: time.Hour}, false}, // >25% node gap
		{Job{Name: "cfd", Nodes: 120, Runtime: time.Hour}, true},
		{Job{Name: "cfd", Nodes: 100, Runtime: 3 * time.Hour}, false}, // >2x runtime
		{Job{Name: "cfd", Nodes: 100, Runtime: 90 * time.Minute}, true},
	}
	for i, c := range cases {
		if got := Correlated(a, &c.b); got != c.want {
			t.Errorf("case %d: Correlated = %v, want %v", i, got, c.want)
		}
	}
}

func TestCorrelationDecaysWithInterval(t *testing.T) {
	// Fig. 5b: correlation decreases significantly as the interval grows.
	tr := Generate(Tianhe2AConfig(20000))
	rng := rand.New(rand.NewSource(1))
	pts := tr.CorrelationVsInterval(36, 3000, rng)
	if len(pts) != 36 {
		t.Fatalf("points = %d", len(pts))
	}
	early := (pts[0].Ratio + pts[1].Ratio + pts[2].Ratio) / 3
	late := (pts[33].Ratio + pts[34].Ratio + pts[35].Ratio) / 3
	if early <= late {
		t.Errorf("correlation did not decay: early=%.3f late=%.3f", early, late)
	}
	if early < 0.2 {
		t.Errorf("short-interval correlation = %.3f, want substantial locality", early)
	}
}

func TestStableSystemKeepsLongIntervalCorrelation(t *testing.T) {
	// Fig. 5b: at 30+ hours Tianhe-2A stabilizes ~0.3 while NG-Tianhe
	// drops toward 0 — the mature system has more stable users and
	// applications.
	rng := rand.New(rand.NewSource(2))
	mature := Generate(Tianhe2AConfig(20000))
	young := Generate(NGTianheConfig(20000))
	mp := mature.CorrelationVsInterval(40, 3000, rng)
	yp := young.CorrelationVsInterval(40, 3000, rng)
	mLate := (mp[36].Ratio + mp[37].Ratio + mp[38].Ratio + mp[39].Ratio) / 4
	yLate := (yp[36].Ratio + yp[37].Ratio + yp[38].Ratio + yp[39].Ratio) / 4
	if mLate <= yLate {
		t.Errorf("mature late correlation %.3f <= young %.3f", mLate, yLate)
	}
	if yLate > 0.15 {
		t.Errorf("young system late correlation = %.3f, want near 0", yLate)
	}
}

func TestCorrelationDecaysWithIDGap(t *testing.T) {
	// Fig. 5c: decays with ID gap, stabilizing low past ~700.
	tr := Generate(Tianhe2AConfig(20000))
	rng := rand.New(rand.NewSource(3))
	pts := tr.CorrelationVsIDGap(1400, 100, 3000, rng)
	if len(pts) != 14 {
		t.Fatalf("points = %d", len(pts))
	}
	early := pts[0].Ratio
	late := (pts[12].Ratio + pts[13].Ratio) / 2
	if early <= late {
		t.Errorf("ID-gap correlation did not decay: early=%.3f late=%.3f", early, late)
	}
}

func TestSubmitHour(t *testing.T) {
	j := Job{Submit: 26*time.Hour + 30*time.Minute}
	if j.SubmitHour() != 2 {
		t.Errorf("SubmitHour = %d, want 2", j.SubmitHour())
	}
}

func TestPZeroRuntime(t *testing.T) {
	j := Job{UserEstimate: time.Hour}
	if j.P() != 0 {
		t.Error("P with zero runtime must be 0")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := Generate(Tianhe2AConfig(100))
	tr.Jobs[50].ID = 99
	if tr.Validate() == nil {
		t.Error("bad ID not caught")
	}
	tr = Generate(Tianhe2AConfig(100))
	tr.Jobs[50].Runtime = 0
	if tr.Validate() == nil {
		t.Error("zero runtime not caught")
	}
	tr = Generate(Tianhe2AConfig(100))
	tr.Jobs[50].Submit = tr.Jobs[49].Submit - time.Hour
	if tr.Validate() == nil {
		t.Error("time disorder not caught")
	}
}

// TestNoSubmitBeforeStart pins the long-runner clamp: these seeds of a
// small one-week Tianhe-2A trace drew an evening jitter that put their
// first submission before t=0 (seed 4300 at -14m27s), which the
// scheduler cannot replay.
func TestNoSubmitBeforeStart(t *testing.T) {
	for _, seed := range []int64{4300, 9725, 11576} {
		cfg := Tianhe2AConfig(500)
		cfg.MaxNodes, cfg.Days, cfg.Seed = 1024, 7, seed
		tr := Generate(cfg)
		if first := tr.Jobs[0].Submit; first != 0 {
			t.Errorf("seed %d: first submit %v, want the clamped 0", seed, first)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	tr := Generate(Tianhe2AConfig(100))
	tr.Jobs[0].Submit = -time.Second
	if tr.Validate() == nil {
		t.Error("submit before the trace start not caught")
	}
}

// TestGeneratedTracesValidateOverSeeds is the property behind the clamp:
// every generated trace passes Validate, whatever the seed.
func TestGeneratedTracesValidateOverSeeds(t *testing.T) {
	for seed := int64(4000); seed < 5000; seed++ {
		cfg := Tianhe2AConfig(500)
		cfg.MaxNodes, cfg.Days, cfg.Seed = 1024, 7, seed
		if err := Generate(cfg).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func BenchmarkGenerate50K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(NGTianheConfig(50000))
	}
}
