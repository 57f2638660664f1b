package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

// --- K-means ---------------------------------------------------------------

func blobs(rng *rand.Rand, centers [][]float64, perCluster int, spread float64) ([][]float64, []int) {
	var xs [][]float64
	var labels []int
	for c, cen := range centers {
		for i := 0; i < perCluster; i++ {
			row := make([]float64, len(cen))
			for j, v := range cen {
				row[j] = v + rng.NormFloat64()*spread
			}
			xs = append(xs, row)
			labels = append(labels, c)
		}
	}
	return xs, labels
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	xs, labels := blobs(rng, centers, 50, 0.5)
	km := KMeansFit(xs, 3, 0, rng)
	if km.K() != 3 {
		t.Fatalf("K = %d", km.K())
	}
	// Every pair from the same blob must share a cluster.
	assign := km.Assign(xs)
	for i := 1; i < len(xs); i++ {
		if labels[i] == labels[i-1] && assign[i] != assign[i-1] {
			t.Fatalf("samples %d,%d from same blob split across clusters", i-1, i)
		}
	}
	for _, sz := range km.Sizes {
		if sz != 50 {
			t.Errorf("cluster size %d, want 50", sz)
		}
	}
}

func TestKMeansMoreClustersThanSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := [][]float64{{1}, {2}}
	km := KMeansFit(xs, 10, 0, rng)
	if km.K() != 2 {
		t.Errorf("K = %d, want clamp to 2", km.K())
	}
}

func TestKMeansEmpty(t *testing.T) {
	km := KMeansFit(nil, 3, 0, rand.New(rand.NewSource(1)))
	if km.K() != 0 {
		t.Error("empty fit must produce no centroids")
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}, {0, 8}, {8, 0}}, 40, 1.0)
	i2 := KMeansFit(xs, 2, 0, rng).Inertia
	i4 := KMeansFit(xs, 4, 0, rng).Inertia
	if i4 >= i2 {
		t.Errorf("inertia(4)=%v >= inertia(2)=%v", i4, i2)
	}
}

func TestChooseKElbowFindsBlobCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, _ := blobs(rng, [][]float64{{0, 0}, {20, 0}, {0, 20}, {20, 20}}, 40, 0.5)
	k := ChooseKElbow(xs, 1, 10, 50, rng)
	if k < 3 || k > 5 {
		t.Errorf("elbow K = %d, want ~4", k)
	}
}

// --- SVR --------------------------------------------------------------------

func TestSVRFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+1)
	}
	m := SVRFit(xs, ys, SVRConfig{C: 100, Epsilon: 0.05})
	for _, q := range []float64{-1.5, 0, 1.5} {
		got := m.Predict([]float64{q})
		want := 3*q + 1
		if math.Abs(got-want) > 0.3 {
			t.Errorf("f(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSVRFitsNonlinearWithRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()*6 - 3
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x))
	}
	m := SVRFit(xs, ys, SVRConfig{C: 50, Epsilon: 0.02, Kernel: RBFKernel{Gamma: 1}})
	errSum := 0.0
	n := 0
	for q := -2.5; q <= 2.5; q += 0.25 {
		errSum += math.Abs(m.Predict([]float64{q}) - math.Sin(q))
		n++
	}
	if mae := errSum / float64(n); mae > 0.15 {
		t.Errorf("MAE = %v on sin(x)", mae)
	}
}

func TestSVREpsilonSparsity(t *testing.T) {
	// With a wide tube and data inside it, most coefficients stay zero.
	rng := rand.New(rand.NewSource(6))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 5.0+rng.NormFloat64()*0.01)
	}
	wide := SVRFit(xs, ys, SVRConfig{C: 10, Epsilon: 1.0})
	tight := SVRFit(xs, ys, SVRConfig{C: 10, Epsilon: 0.001})
	if wide.SupportVectors() >= tight.SupportVectors() {
		t.Errorf("wide-tube SVs (%d) should be fewer than tight-tube SVs (%d)",
			wide.SupportVectors(), tight.SupportVectors())
	}
}

func TestSVREmptyFit(t *testing.T) {
	m := SVRFit(nil, nil, SVRConfig{})
	if m.Predict([]float64{1}) != 0 {
		t.Error("empty SVR must predict 0")
	}
}

func TestSVRConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 50; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x)
	}
	m := SVRFit(xs, ys, SVRConfig{MaxIter: 500})
	if m.Iterations() >= 500 {
		t.Errorf("SVR did not converge in %d sweeps", m.Iterations())
	}
}

// --- Regression tree / forest ------------------------------------------------

func stepData(rng *rand.Rand, n int) ([][]float64, []float64) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		y := 1.0
		if x > 5 {
			y = 9.0
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y)
	}
	return xs, ys
}

func TestTreeLearnsStepFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ys := stepData(rng, 200)
	tr := TreeFit(xs, ys, TreeConfig{})
	if got := tr.Predict([]float64{2}); math.Abs(got-1) > 0.01 {
		t.Errorf("f(2) = %v, want 1", got)
	}
	if got := tr.Predict([]float64{8}); math.Abs(got-9) > 0.01 {
		t.Errorf("f(8) = %v, want 9", got)
	}
	if tr.Depth() == 0 || tr.Nodes() < 3 {
		t.Errorf("degenerate tree: depth=%d nodes=%d", tr.Depth(), tr.Nodes())
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, rng.Float64())
	}
	tr := TreeFit(xs, ys, TreeConfig{MaxDepth: 3})
	if tr.Depth() > 3 {
		t.Errorf("depth %d > max 3", tr.Depth())
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{5, 5, 5, 5}
	tr := TreeFit(xs, ys, TreeConfig{})
	if tr.Nodes() != 1 {
		t.Errorf("constant target built %d nodes", tr.Nodes())
	}
	if tr.Predict([]float64{10}) != 5 {
		t.Error("wrong constant prediction")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gen := func(n int) ([][]float64, []float64) {
		var xs [][]float64
		var ys []float64
		for i := 0; i < n; i++ {
			a, b := rng.Float64()*4, rng.Float64()*4
			xs = append(xs, []float64{a, b})
			ys = append(ys, a*2+b+rng.NormFloat64()*0.8)
		}
		return xs, ys
	}
	trainX, trainY := gen(300)
	testX, testY := gen(100)
	tree := TreeFit(trainX, trainY, TreeConfig{})
	forest := ForestFit(trainX, trainY, ForestConfig{Trees: 40}, rng)
	mse := func(pred func([]float64) float64) float64 {
		s := 0.0
		for i, q := range testX {
			d := pred(q) - testY[i]
			s += d * d
		}
		return s / float64(len(testX))
	}
	if mse(forest.Predict) >= mse(tree.Predict) {
		t.Errorf("forest MSE %v >= tree MSE %v", mse(forest.Predict), mse(tree.Predict))
	}
	if forest.Size() != 40 {
		t.Errorf("forest size %d", forest.Size())
	}
}

func TestForestEmpty(t *testing.T) {
	f := ForestFit(nil, nil, ForestConfig{}, rand.New(rand.NewSource(1)))
	if f.Predict([]float64{1}) != 0 {
		t.Error("empty forest must predict 0")
	}
}

// --- Bayesian ridge -----------------------------------------------------------

func TestBayesianRidgeRecoversWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-3*b+0.5+rng.NormFloat64()*0.1)
	}
	m := BayesianRidgeFit(xs, ys, 0)
	if math.Abs(m.Weights[0]-2) > 0.1 || math.Abs(m.Weights[1]+3) > 0.1 {
		t.Errorf("weights = %v, want ~[2 -3 0.5]", m.Weights)
	}
	if math.Abs(m.Weights[2]-0.5) > 0.1 {
		t.Errorf("intercept = %v", m.Weights[2])
	}
	if m.Predict([]float64{1, 1}) == 0 {
		t.Error("prediction is zero")
	}
	// Noise precision should be around 1/0.01 = 100.
	if m.Alpha < 20 || m.Alpha > 500 {
		t.Errorf("alpha = %v, want O(100)", m.Alpha)
	}
}

func TestBayesianRidgeShrinksOnPureNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		xs = append(xs, []float64{rng.NormFloat64()})
		ys = append(ys, rng.NormFloat64())
	}
	m := BayesianRidgeFit(xs, ys, 0)
	if math.Abs(m.Weights[0]) > 0.2 {
		t.Errorf("weight on noise feature = %v, want ~0", m.Weights[0])
	}
}

func TestBayesianRidgeEmpty(t *testing.T) {
	m := BayesianRidgeFit(nil, nil, 0)
	if m.Predict([]float64{1}) != 0 {
		t.Error("empty model must predict 0")
	}
}

// --- Tobit --------------------------------------------------------------------

func TestTobitCorrectsCensorBias(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var xs [][]float64
	var ys []float64
	var cens []bool
	var xsOLS [][]float64
	var ysOLS []float64
	// True model: y* = 4x + noise; censored at 3 (many high values cut).
	for i := 0; i < 400; i++ {
		x := rng.Float64()
		yStar := 4*x + rng.NormFloat64()*0.3
		y := yStar
		c := false
		if y > 3 {
			y = 3
			c = true
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y)
		cens = append(cens, c)
		xsOLS = append(xsOLS, []float64{x})
		ysOLS = append(ysOLS, y)
	}
	tob := TobitFit(xs, ys, cens, TobitConfig{})
	ols := BayesianRidgeFit(xsOLS, ysOLS, 0) // naive fit on censored data
	// At x = 0.9 the true mean is 3.6, beyond the censor point. Tobit must
	// get closer than the naive fit.
	truth := 4 * 0.9
	tErr := math.Abs(tob.Predict([]float64{0.9}) - truth)
	oErr := math.Abs(ols.Predict([]float64{0.9}) - truth)
	if tErr >= oErr {
		t.Errorf("Tobit error %v >= naive error %v", tErr, oErr)
	}
	if tErr > 0.5 {
		t.Errorf("Tobit prediction error %v too large", tErr)
	}
}

func TestTobitUncensoredMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var xs [][]float64
	var ys []float64
	var cens []bool
	for i := 0; i < 300; i++ {
		x := rng.NormFloat64()
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x+1+rng.NormFloat64()*0.1)
		cens = append(cens, false)
	}
	m := TobitFit(xs, ys, cens, TobitConfig{})
	for _, q := range []float64{-1, 0, 1} {
		want := 2*q + 1
		if got := m.Predict([]float64{q}); math.Abs(got-want) > 0.2 {
			t.Errorf("f(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestTobitEmpty(t *testing.T) {
	m := TobitFit(nil, nil, nil, TobitConfig{})
	if m.Predict([]float64{1}) != 0 {
		t.Error("empty Tobit must predict 0")
	}
}

// --- Benchmarks ----------------------------------------------------------------

func BenchmarkKMeans700Jobs(b *testing.B) {
	// The estimation framework clusters a 700-job interest window into
	// K=15 clusters; this is the recurring training cost.
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 700)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansFit(xs, 15, 50, rng)
	}
}

func BenchmarkKMeans700JobsK40(b *testing.B) {
	// The same window at the K=40 the benchmark workloads use, where
	// K-means++ seeding's cost grows with k.
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 700)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansFit(xs, 40, 50, rng)
	}
}

func BenchmarkSVRFitJobWindow(b *testing.B) {
	// One refresh's SVR stage: a 700-row job-like window (most rows
	// bit-identical to another) clustered at K=40, then one SVR per
	// cluster with the framework's configuration.
	xs, ys := jobWindowRows(700, 41)
	km := KMeansFit(xs, 40, 50, rand.New(rand.NewSource(42)))
	cx := make([][][]float64, km.K())
	cy := make([][]float64, km.K())
	for i, c := range km.Assign(xs) {
		cx[c] = append(cx[c], xs[i])
		cy[c] = append(cy[c], ys[i])
	}
	cfg := SVRConfig{C: 10, Epsilon: 0.01, MaxIter: 1500, Kernel: RBFKernel{Gamma: 0.25}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range cx {
			SVRFit(cx[c], cy[c], cfg)
		}
	}
}

func BenchmarkSVRFitCluster(b *testing.B) {
	// ~47 jobs per cluster (700/15) with 5 features.
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 47)
	ys := make([]float64, 47)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.Float64() * 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVRFit(xs, ys, SVRConfig{})
	}
}
