package mlkit

import (
	"cmp"
	"math"
	"slices"
)

// Kernel maps two feature vectors to a similarity value. Eval must be a
// symmetric pure function of its arguments' bits: SVRFit evaluates it
// once per pair of distinct rows.
type Kernel interface {
	Eval(a, b []float64) float64
}

// RBFKernel is exp(-gamma · ‖a−b‖²).
type RBFKernel struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	return math.Exp(-k.Gamma * SqDist(a, b))
}

// LinearKernel is the plain dot product.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 { return Dot(a, b) }

// SVRConfig parameterizes ε-insensitive support-vector regression.
type SVRConfig struct {
	// C is the box constraint (regularization inverse). Zero defaults to 10.
	C float64
	// Epsilon is the insensitive-tube half-width. Zero defaults to 0.1.
	Epsilon float64
	// Kernel defaults to RBF with gamma = 1/p.
	Kernel Kernel
	// MaxIter bounds coordinate-descent sweeps. Zero defaults to 200.
	MaxIter int
	// Tol is the convergence threshold on the largest coefficient change
	// per sweep. Zero defaults to 1e-4.
	Tol float64
}

func (c SVRConfig) withDefaults(p int) SVRConfig {
	if c.C == 0 {
		c.C = 10
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Kernel == nil {
		g := 1.0
		if p > 0 {
			g = 1.0 / float64(p)
		}
		c.Kernel = RBFKernel{Gamma: g}
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// SVR is a fitted ε-insensitive support-vector regression model — the
// per-cluster regressor of the estimation framework (Section V-A:
// "a support vector machine (SVM) model for regression (SVR)").
//
// The dual is solved by coordinate descent on β = α − α*, with the bias
// folded into the kernel (K' = K + 1), which removes the equality
// constraint Σβ = 0 and admits a closed-form per-coordinate update with
// soft thresholding at ε.
type SVR struct {
	cfg SVRConfig
	// beta holds one dual coefficient per training sample.
	beta []float64
	// sv lists the support vectors in sample order; their rows index
	// rows, the distinct training rows the support vectors use.
	sv    []supportVector
	rows  [][]float64
	iters int
}

// supportVector is one sample with a non-zero dual coefficient.
type supportVector struct {
	beta float64
	row  int
}

// SVRFit trains an SVR on row-major samples x with targets y.
//
// Job windows repeat rows: bit-identical rows have bit-identical rows of
// K' (Kernel.Eval is symmetric bit for bit), so their entries of f receive the same additions in
// the same order. The solver therefore keeps K' and f over the u distinct
// rows only, while β and the coordinate order stay per sample: every
// coefficient is bit-identical to the n×n formulation, and an update
// costs u instead of n.
func SVRFit(x [][]float64, y []float64, cfg SVRConfig) *SVR {
	n := len(x)
	if n == 0 {
		return &SVR{cfg: cfg.withDefaults(0)}
	}
	if len(y) != n {
		panic("mlkit: SVRFit requires len(x) == len(y)")
	}
	cfg = cfg.withDefaults(len(x[0]))
	m := &SVR{cfg: cfg, beta: make([]float64, n)}
	rep, uniq := uniqueRows(x)
	u := len(uniq)

	// Precompute the augmented kernel matrix K' = K + 1 (bias folding).
	km := make([]float64, u*u)
	for i := 0; i < u; i++ {
		for j := i; j < u; j++ {
			v := cfg.Kernel.Eval(uniq[i], uniq[j]) + 1
			km[i*u+j] = v
			km[j*u+i] = v
		}
	}

	// f[p] = Σ_j β_j K'_pj over the samples j, maintained incrementally.
	f := make([]float64, u)
	for sweep := 0; sweep < cfg.MaxIter; sweep++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			p := rep[i]
			kii := km[p*u+p]
			if kii <= 0 {
				continue
			}
			// Residual excluding i's own contribution.
			r := y[i] - (f[p] - m.beta[i]*kii)
			// Soft-threshold at epsilon, then box-clip.
			var nb float64
			switch {
			case r > cfg.Epsilon:
				nb = (r - cfg.Epsilon) / kii
			case r < -cfg.Epsilon:
				nb = (r + cfg.Epsilon) / kii
			default:
				nb = 0
			}
			if nb > cfg.C {
				nb = cfg.C
			} else if nb < -cfg.C {
				nb = -cfg.C
			}
			d := nb - m.beta[i]
			if d == 0 {
				continue
			}
			m.beta[i] = nb
			for j, v := range km[p*u : p*u+u] {
				f[j] += d * v
			}
			if ad := math.Abs(d); ad > maxDelta {
				maxDelta = ad
			}
		}
		m.iters = sweep + 1
		if maxDelta < cfg.Tol {
			break
		}
	}

	// Keep the support vectors and, once each, the distinct rows they use.
	nsv := 0
	for _, b := range m.beta {
		if b != 0 {
			nsv++
		}
	}
	m.sv = make([]supportVector, 0, nsv)
	m.rows = make([][]float64, 0, min(nsv, u))
	kept := make([]int, u) // kept[p] is p's index in m.rows plus one
	for i, b := range m.beta {
		if b == 0 {
			continue
		}
		p := rep[i]
		if kept[p] == 0 {
			m.rows = append(m.rows, uniq[p])
			kept[p] = len(m.rows)
		}
		m.sv = append(m.sv, supportVector{beta: b, row: kept[p] - 1})
	}
	return m
}

// uniqueRows maps every row of x to its class of bit-identical rows:
// rep[i] numbers the classes in order of first occurrence and uniq[c] is
// class c's first row. Rows are grouped by sorting their indices on the
// rows' Float64bits, so the number of allocations does not grow with the
// row count.
func uniqueRows(x [][]float64) (rep []int, uniq [][]float64) {
	n := len(x)
	buf := make([]int, 2*n)
	order, rep := buf[:n], buf[n:]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := compareBits(x[a], x[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Point each row at its class's first (lowest-index) row.
	u := 0
	for k, i := range order {
		if k > 0 && compareBits(x[order[k-1]], x[i]) == 0 {
			rep[i] = rep[order[k-1]]
		} else {
			rep[i] = i
			u++
		}
	}
	// Renumber classes by first occurrence; rep[rep[i]] < i is already a
	// class number when row i is reached.
	uniq = make([][]float64, 0, u)
	for i := range rep {
		if rep[i] == i {
			rep[i] = len(uniq)
			uniq = append(uniq, x[i])
		} else {
			rep[i] = rep[rep[i]]
		}
	}
	return rep, uniq
}

// compareBits orders rows by length, then lexicographically by the bit
// patterns of their elements; it returns 0 only for bit-identical rows.
func compareBits(a, b []float64) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i := range a {
		if c := cmp.Compare(math.Float64bits(a[i]), math.Float64bits(b[i])); c != 0 {
			return c
		}
	}
	return 0
}

// Predict evaluates the fitted model at q. The kernel is evaluated once
// per distinct support row; the sum still runs over the support vectors
// in sample order, so the result is the per-sample sum, bit for bit.
func (m *SVR) Predict(q []float64) float64 {
	var buf [256]float64
	k := buf[:]
	if len(m.rows) > len(buf) {
		k = make([]float64, len(m.rows))
	}
	for r, row := range m.rows {
		k[r] = m.cfg.Kernel.Eval(row, q)
	}
	s := 0.0
	for _, v := range m.sv {
		s += v.beta * (k[v.row] + 1)
	}
	return s
}

// SupportVectors returns the number of samples with non-zero dual
// coefficients.
func (m *SVR) SupportVectors() int { return len(m.sv) }

// Iterations returns the number of coordinate-descent sweeps performed.
func (m *SVR) Iterations() int { return m.iters }
