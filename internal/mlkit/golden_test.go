package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

// The golden tests pin the exact bits the SVR and K-means kernels produce.
// The kernels' speed-ups (distinct-row dual, incremental seeding, pruned
// nearest-centroid search) are exact rewrites, so any change to a pinned
// digest below is a behaviour change, not rounding noise.

// bitsDigest accumulates the bit patterns of floats and ints into one
// FNV-64a hash, in call order.
type bitsDigest struct{ h uint64 }

func newBitsDigest() *bitsDigest { return &bitsDigest{h: 14695981039346656037} }

func (d *bitsDigest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *bitsDigest) float(v float64) { d.word(math.Float64bits(v)) }

func (d *bitsDigest) floats(vs []float64) {
	for _, v := range vs {
		d.float(v)
	}
}

func (d *bitsDigest) ints(vs []int) {
	for _, v := range vs {
		d.word(uint64(v))
	}
}

// jobWindowRows synthesizes n feature rows with the duplicate structure of
// an estimation-framework interest window: rows are encoded like
// estimate.Features (8 signed-hash dims for the application, 4 for the
// user, log2 nodes, log2 cores, submission hour) and drawn from a small,
// skewed set of (application, user, scale, hour) combinations, so most
// rows are bit-identical to an earlier one. ys are log-runtime-like
// targets with per-row noise.
func jobWindowRows(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	signs := func(k, dims int) [][]float64 {
		out := make([][]float64, k)
		for i := range out {
			out[i] = make([]float64, dims)
			for j := range out[i] {
				out[i][j] = float64(2*rng.Intn(2) - 1)
			}
		}
		return out
	}
	apps, users := signs(16, 8), signs(6, 4)
	appBase := make([]float64, len(apps))
	for i := range appBase {
		appBase[i] = 4 + 4*rng.Float64()
	}
	hours := []float64{9, 10, 14, 22}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		app := int(u * u * float64(len(apps))) // skewed: a few busy applications
		scale := rng.Intn(4)
		row := make([]float64, 15)
		copy(row, apps[app])
		copy(row[8:], users[app%len(users)])
		row[12] = float64(scale)
		row[13] = float64(scale) + math.Log2(24)
		row[14] = hours[app%len(hours)] / 6
		xs[i] = row
		ys[i] = appBase[app] + 0.4*float64(scale) + 0.3*rng.NormFloat64()
	}
	return xs, ys
}

// distinctRows counts the rows of xs that are not bit-identical to an
// earlier row.
func distinctRows(xs [][]float64) int {
	seen := map[uint64]bool{}
	for _, x := range xs {
		d := newBitsDigest()
		d.floats(x)
		seen[d.h] = true
	}
	return len(seen)
}

// svrDigest hashes a fitted SVR's per-sample β bits and its predictions
// at every training row and at the queries.
func svrDigest(m *SVR, xs, queries [][]float64) uint64 {
	d := newBitsDigest()
	d.floats(m.beta)
	for _, q := range xs {
		d.float(m.Predict(q))
	}
	for _, q := range queries {
		d.float(m.Predict(q))
	}
	return d.h
}

func TestSVRGoldenBits(t *testing.T) {
	dupX, dupY := jobWindowRows(160, 11)
	if u := distinctRows(dupX); u*2 > len(dupX) {
		t.Fatalf("job-window fixture has %d distinct rows of %d; want a duplicate-heavy window", u, len(dupX))
	}
	dupQ, _ := jobWindowRows(8, 12)

	rng := rand.New(rand.NewSource(13))
	uniX := make([][]float64, 60)
	uniY := make([]float64, len(uniX))
	for i := range uniX {
		uniX[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		uniY[i] = 3*uniX[i][0] - uniX[i][2] + rng.NormFloat64()*0.1
	}
	uniQ := [][]float64{{0.5, 0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1, 0}}

	framework := SVRConfig{C: 10, Epsilon: 0.01, MaxIter: 1500, Kernel: RBFKernel{Gamma: 0.25}}
	cases := []struct {
		name       string
		x, q       [][]float64
		y          []float64
		cfg        SVRConfig
		iters, svs int
		digest     uint64
	}{
		{"job-window-rbf", dupX, dupQ, dupY, framework, 1500, 158, 0xeaddad03bb8b19bb},
		{"job-window-linear", dupX, dupQ, dupY, SVRConfig{Kernel: LinearKernel{}, MaxIter: 300}, 300, 151, 0xd2e4ed9b2a9227a8},
		{"distinct-default", uniX, uniQ, uniY, SVRConfig{}, 200, 32, 0x1cb008ef3836f933},
	}
	for _, c := range cases {
		m := SVRFit(c.x, c.y, c.cfg)
		got := svrDigest(m, c.x, c.q)
		if m.Iterations() != c.iters || m.SupportVectors() != c.svs || got != c.digest {
			t.Errorf("%s: iters %d, support vectors %d, digest %#016x; want %d, %d, %#016x",
				c.name, m.Iterations(), m.SupportVectors(), got, c.iters, c.svs, c.digest)
		}
	}
}

func TestKMeansGoldenBits(t *testing.T) {
	xs, _ := jobWindowRows(700, 21)
	if u := distinctRows(xs); u*2 > len(xs) {
		t.Fatalf("job-window fixture has %d distinct rows of %d; want a duplicate-heavy window", u, len(xs))
	}
	rng := rand.New(rand.NewSource(22))
	km := KMeansFit(xs, 40, 50, rng)

	cen := newBitsDigest()
	for _, c := range km.Centroids {
		cen.floats(c)
	}
	sizes := newBitsDigest()
	sizes.ints(km.Sizes)
	assign := newBitsDigest()
	assign.ints(km.Assign(xs))
	// The next draw proves seeding consumed the same random numbers.
	next := rng.Int63()

	const (
		wantCentroids = 0x6b5fabcffba2a81b
		wantSizes     = 0xd372a64ee01277ef
		wantAssign    = 0x137f660710bce43d
		wantInertia   = 0x406b250147b21089
		wantNext      = 1396382690607217764
	)
	if cen.h != wantCentroids || sizes.h != wantSizes || assign.h != wantAssign ||
		math.Float64bits(km.Inertia) != wantInertia || next != wantNext {
		t.Errorf("centroids %#016x, sizes %#016x, assign %#016x, inertia bits %#016x, next draw %d;\nwant %#016x, %#016x, %#016x, %#016x, %d",
			cen.h, sizes.h, assign.h, math.Float64bits(km.Inertia), next,
			uint64(wantCentroids), uint64(wantSizes), uint64(wantAssign), uint64(wantInertia), int64(wantNext))
	}
}

func TestNearestTiesAndEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name      string
		centroids [][]float64
		x         []float64
		want      int
	}{
		{"four-way tie keeps first", [][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}, []float64{0, 0}, 0},
		{"duplicate centroids keep first", [][]float64{{5, 5}, {1, 1}, {1, 1}}, []float64{0, 0}, 1},
		{"tie reached on a prefix", [][]float64{{1, 0, 0}, {0, 1, 0}}, []float64{0, 0, 0}, 0},
		{"later strictly closer", [][]float64{{3, 0}, {2, 0}, {1, 0}}, []float64{0, 0}, 2},
		{"NaN query", [][]float64{{1}, {0}}, []float64{nan}, 0},
		{"infinite distances", [][]float64{{0}, {1}}, []float64{inf}, 0},
		{"NaN centroid skipped", [][]float64{{nan}, {2}, {1}}, []float64{0}, 2},
	}
	for _, c := range cases {
		km := &KMeans{Centroids: c.centroids}
		if got := km.Nearest(c.x); got != c.want {
			t.Errorf("%s: Nearest = %d, want %d", c.name, got, c.want)
		}
		if got := km.Assign([][]float64{c.x}); got[0] != c.want {
			t.Errorf("%s: Assign = %v, want [%d]", c.name, got, c.want)
		}
	}

	defer func() {
		if r := recover(); r != "mlkit: SqDist length mismatch" {
			t.Errorf("Nearest on a short vector: recovered %v, want the SqDist length-mismatch panic", r)
		}
	}()
	(&KMeans{Centroids: [][]float64{{0, 0}, {1, 1}}}).Nearest([]float64{0})
}
