// Package fptree implements the failure-prediction-based communication tree
// of Section IV of the paper.
//
// A satellite node receiving a broadcast task holds an ordered list of
// participating nodes. The list's order fully determines the shape of the
// k-ary relay tree ("if all nodes use the same grouping method ... the
// node's location in the initial node list corresponds to its location in
// the tree"). The FP-Tree constructor therefore has three parts, mirroring
// Fig. 4:
//
//  1. LeafSlots — simulate the recursive grouping to find which positions
//     of the list end up as tree leaves (Eq. 2, Θ(n)).
//  2. A failure predictor (package predict) supplies the set of nodes
//     expected to fail.
//  3. Rearrange — an O(n) pass that fills leaf positions preferentially
//     with predicted-failed nodes and interior positions with healthy ones.
//
// Build materializes the tree for the broadcast engines in package comm.
// All functions are pure and generic so they are directly
// property-testable — and deterministic: tree shape is a function of list
// order and width alone, with no RNG or map iteration anywhere.
package fptree

import "fmt"

// DefaultWidth is the tree width used across the experiments. With w=32 a
// 4K-node broadcast tree is 3 levels deep, matching the latency regime the
// paper reports.
const DefaultWidth = 32

// groupSizes splits n items into g contiguous groups as evenly as possible:
// the first n%g groups get one extra item.
func groupSizes(n, g int) []int {
	sizes := make([]int, g)
	base, extra := n/g, n%g
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// LeafSlots reports, for each position in an n-node participant list, whether
// the node at that position becomes a leaf of the width-w relay tree. It is
// the "leaf-nodes location" component of Fig. 4(b) and runs in Θ(n).
func LeafSlots(n, w int) []bool {
	if w < 2 {
		panic(fmt.Sprintf("fptree: width must be >= 2, got %d", w))
	}
	leaf := make([]bool, n)
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		n := hi - lo
		switch {
		case n <= 0:
			return
		case n == 1:
			leaf[lo] = true
			return
		}
		g := w
		if n < w {
			// Fewer nodes than the width: every node is a direct child,
			// hence a leaf.
			g = n
		}
		pos := lo
		for _, sz := range groupSizes(n, g) {
			if sz == 0 {
				continue
			}
			if sz == 1 {
				leaf[pos] = true
			} else {
				// Group head at pos is interior; the remainder of the
				// group is its subtree.
				rec(pos+1, pos+sz)
			}
			pos += sz
		}
	}
	rec(0, n)
	return leaf
}

// LeafCount returns the number of leaf slots for an n-node width-w tree
// without allocating the full slot array.
func LeafCount(n, w int) int {
	k := 0
	for _, b := range LeafSlots(n, w) {
		if b {
			k++
		}
	}
	return k
}

// Rearrange returns a permutation of list in which predicted-failed nodes
// (per the predicted callback) occupy leaf slots of the width-w tree and
// healthy nodes occupy interior slots, to the extent counts allow. The
// relative order within each class is preserved, so for an empty prediction
// set the output equals the input. Runs in O(n). This is the "nodelist
// rearranger" of Fig. 4(c).
func Rearrange[T any](list []T, predicted func(T) bool, w int) []T {
	n := len(list)
	if n == 0 {
		return nil
	}
	leaf := LeafSlots(n, w)
	var bad, good []T
	for _, v := range list {
		if predicted(v) {
			bad = append(bad, v)
		} else {
			good = append(good, v)
		}
	}
	out := make([]T, 0, n)
	bi, gi := 0, 0
	for pos := 0; pos < n; pos++ {
		takeBad := leaf[pos]
		if takeBad && bi >= len(bad) {
			takeBad = false
		}
		if !takeBad && gi >= len(good) {
			takeBad = true
		}
		if takeBad {
			out = append(out, bad[bi])
			bi++
		} else {
			out = append(out, good[gi])
			gi++
		}
	}
	return out
}

// FineTune adjusts an already-ordered list (e.g. one produced by a
// topology-aware placer, §IV-E last paragraph) with the minimum number of
// swaps needed to push predicted-failed nodes into leaf slots: each
// predicted node at an interior slot is swapped with a healthy node at a
// leaf slot. Unlike Rearrange it preserves the positions of all other
// nodes. Returns the number of swaps performed.
func FineTune[T any](list []T, predicted func(T) bool, w int) int {
	n := len(list)
	if n == 0 {
		return 0
	}
	leaf := LeafSlots(n, w)
	var interiorBad, leafGood []int
	for i, v := range list {
		switch {
		case !leaf[i] && predicted(v):
			interiorBad = append(interiorBad, i)
		case leaf[i] && !predicted(v):
			leafGood = append(leafGood, i)
		}
	}
	swaps := 0
	for swaps < len(interiorBad) && swaps < len(leafGood) {
		i, j := interiorBad[swaps], leafGood[swaps]
		list[i], list[j] = list[j], list[i]
		swaps++
	}
	return swaps
}

// Node is one vertex of a materialized relay tree.
type Node[T any] struct {
	Value    T
	Children []*Node[T]
	// Size is the number of participants in the node's subtree, itself
	// included — what a relay message's sub-nodelist carries.
	Size int
}

// Tree is a materialized width-w relay tree over a participant list. Root
// is the broadcast origin (the satellite node itself does not appear in the
// list; the tree's top-level children are the first-layer relay nodes).
type Tree[T any] struct {
	Width int
	// Roots are the first-layer nodes the origin contacts directly.
	Roots []*Node[T]
	size  int
}

// Build materializes the relay tree for a participant list, following the
// same grouping as LeafSlots. It runs in Θ(n).
func Build[T any](list []T, w int) *Tree[T] {
	if w < 2 {
		panic(fmt.Sprintf("fptree: width must be >= 2, got %d", w))
	}
	t := &Tree[T]{Width: w, size: len(list)}
	var rec func(lo, hi int) []*Node[T]
	rec = func(lo, hi int) []*Node[T] {
		n := hi - lo
		if n <= 0 {
			return nil
		}
		g := w
		if n < w {
			g = n
		}
		nodes := make([]*Node[T], 0, g)
		pos := lo
		for _, sz := range groupSizes(n, g) {
			if sz == 0 {
				continue
			}
			nd := &Node[T]{Value: list[pos], Size: sz}
			nd.Children = rec(pos+1, pos+sz)
			nodes = append(nodes, nd)
			pos += sz
		}
		return nodes
	}
	t.Roots = rec(0, len(list))
	return t
}

// Size returns the number of participant nodes in the tree.
func (t *Tree[T]) Size() int { return t.size }

// Depth returns the number of relay levels (0 for an empty tree, 1 when all
// participants are direct children of the origin).
func (t *Tree[T]) Depth() int {
	var rec func(ns []*Node[T]) int
	rec = func(ns []*Node[T]) int {
		if len(ns) == 0 {
			return 0
		}
		max := 0
		for _, n := range ns {
			if d := rec(n.Children); d > max {
				max = d
			}
		}
		return max + 1
	}
	return rec(t.Roots)
}

// Walk visits every node with its depth (first layer = 0), parent value and
// whether it is a leaf, in list order.
func (t *Tree[T]) Walk(visit func(value T, depth int, leaf bool)) {
	var rec func(ns []*Node[T], depth int)
	rec = func(ns []*Node[T], depth int) {
		for _, n := range ns {
			visit(n.Value, depth, len(n.Children) == 0)
			rec(n.Children, depth+1)
		}
	}
	rec(t.Roots, 0)
}

// Leaves returns the values at the tree's leaves in list order.
func (t *Tree[T]) Leaves() []T {
	var out []T
	t.Walk(func(v T, _ int, leaf bool) {
		if leaf {
			out = append(out, v)
		}
	})
	return out
}

// Values returns all participant values in list order.
func (t *Tree[T]) Values() []T {
	out := make([]T, 0, t.size)
	t.Walk(func(v T, _ int, _ bool) { out = append(out, v) })
	return out
}

// DescendantCounts returns, per participant in list order, the number of
// descendants below it — the quantity that makes an interior failure
// expensive (Section IV: "the more descendant nodes of a failed node have,
// the higher the delay").
func DescendantCounts[T any](t *Tree[T]) map[int]int {
	counts := make(map[int]int, t.size)
	idx := 0
	var rec func(n *Node[T]) int
	rec = func(n *Node[T]) int {
		my := idx
		idx++
		total := 0
		for _, c := range n.Children {
			total += 1 + rec(c)
		}
		counts[my] = total
		return total
	}
	for _, r := range t.Roots {
		rec(r)
	}
	return counts
}
