package mlkit

import (
	"math"
	"math/rand"
)

// KMeans is a fitted K-means++ clustering model (Arthur & Vassilvitskii,
// SODA'07), the clustering stage of the estimation model generator
// (Section V-A).
type KMeans struct {
	Centroids [][]float64
	// Sizes[i] is the number of training samples assigned to cluster i.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
}

// KMeansFit clusters samples into k groups using K-means++ seeding and
// Lloyd iterations (at most maxIter; 0 means 100). Fewer samples than k
// yields one cluster per distinct sample position.
func KMeansFit(samples [][]float64, k int, maxIter int, rng *rand.Rand) *KMeans {
	if len(samples) == 0 || k <= 0 {
		return &KMeans{}
	}
	if k > len(samples) {
		k = len(samples)
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	centroids := seedPlusPlus(samples, k, rng)
	assign := make([]int, len(samples))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, s := range samples {
			best := nearest(s, centroids)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		dim := len(samples[0])
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, s := range samples {
			c := assign[i]
			counts[c]++
			for j, v := range s {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed from the sample farthest from its
				// centroid to keep k clusters alive.
				far, farD := 0, -1.0
				for i, s := range samples {
					if d := SqDist(s, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = append([]float64(nil), samples[far]...)
				continue
			}
			for j := range sums[c] {
				sums[c][j] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}

	km := &KMeans{Centroids: centroids, Sizes: make([]int, k)}
	for i, s := range samples {
		c := km.Nearest(s)
		assign[i] = c
		km.Sizes[c]++
		km.Inertia += SqDist(s, centroids[c])
	}
	return km
}

// seedPlusPlus picks k initial centroids with D² weighting. d2[i] is the
// running minimum distance from sample i to the centroids so far; each
// round folds in only the newest centroid, so seeding is O(n·k) rather
// than O(n·k²). The minimum is exact and the total sums the same values
// in the same order, so the draws and picks match a full recomputation.
func seedPlusPlus(samples [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := samples[rng.Intn(len(samples))]
	centroids = append(centroids, append([]float64(nil), first...))

	d2 := make([]float64, len(samples))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		total := 0.0
		for i, s := range samples {
			if d := sqDistBelow(s, newest, d2[i]); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining samples coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), samples[rng.Intn(len(samples))]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), samples[idx]...))
	}
	return centroids
}

// K returns the number of clusters.
func (k *KMeans) K() int { return len(k.Centroids) }

// Nearest returns the index of the closest centroid to x.
func (k *KMeans) Nearest(x []float64) int {
	return nearest(x, k.Centroids)
}

// Assign returns the cluster index of every sample.
func (k *KMeans) Assign(samples [][]float64) []int {
	out := make([]int, len(samples))
	for i, s := range samples {
		out[i] = nearest(s, k.Centroids)
	}
	return out
}

// nearest returns the index of the centroid closest to x, the first on a
// tie.
func nearest(x []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range centroids {
		if d := sqDistBelow(x, cen, bestD); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// sqDistBelow returns SqDist(a, b) when it is below bound, and otherwise
// some value ≥ bound: it stops summing once the partial sum reaches
// bound. The terms are non-negative, so the partial sum never decreases
// and a stopped sum could not have ended below bound; a completed sum
// adds the same terms in the same order as SqDist, so it is bit-identical.
// The bound is checked once per pair of terms: a check after every term
// costs more in mispredicted branches than it saves on short vectors.
func sqDistBelow(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic("mlkit: SqDist length mismatch")
	}
	s := 0.0
	i := 0
	for ; i+1 < len(a); i += 2 {
		d := a[i] - b[i]
		s += d * d
		d = a[i+1] - b[i+1]
		s += d * d
		if s >= bound {
			return s
		}
	}
	if i < len(a) {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ChooseKElbow runs K-means for k in [kMin, kMax] and picks the elbow of
// the inertia curve — the k with the maximum distance from the line
// connecting (kMin, inertia(kMin)) and (kMax, inertia(kMax)) — the
// "classical elbow method" the paper uses to arrive at K=15.
func ChooseKElbow(samples [][]float64, kMin, kMax, maxIter int, rng *rand.Rand) int {
	if kMin < 1 {
		kMin = 1
	}
	if kMax > len(samples) {
		kMax = len(samples)
	}
	if kMax <= kMin {
		return kMin
	}
	inertias := make([]float64, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		inertias[k-kMin] = KMeansFit(samples, k, maxIter, rng).Inertia
	}
	// Distance from the chord.
	x1, y1 := float64(kMin), inertias[0]
	x2, y2 := float64(kMax), inertias[len(inertias)-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return kMin
	}
	bestK, bestD := kMin, -1.0
	for k := kMin; k <= kMax; k++ {
		px, py := float64(k), inertias[k-kMin]
		d := math.Abs(dy*px-dx*py+x2*y1-y2*x1) / norm
		if d > bestD {
			bestK, bestD = k, d
		}
	}
	return bestK
}
