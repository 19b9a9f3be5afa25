package bctree

import (
	"math"
	"math/rand"
	"sort"

	"p2h/internal/partition"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// Build constructs a BC-Tree over the lifted data matrix (rows x = (p; 1))
// with Algorithm 4, or with cfg.BallTree the Ball-Tree of Algorithm 1. Both
// use the same seed-grow splitting rule and maintain the same center and
// radius per node; BC-Tree adds the point-level ball and cone structures.
// Internal-node centers are assembled from the children via Lemma 1 in O(d)
// instead of O(d|N|). The input matrix is not modified; the tree keeps a
// reordered copy so every leaf occupies a contiguous range of rows — sorted
// by descending r_x for batch pruning in a BC-Tree, in build order in a
// Ball-Tree. Nodes are appended to the flat arena in preorder, so the root
// is index 0 and both children of a node sit at larger indices.
func Build(data *vec.Matrix, cfg Config) *Tree {
	if data == nil || data.N == 0 {
		panic("bctree: empty data")
	}
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Tree{
		ids:      make([]int32, data.N),
		leafSize: cfg.LeafSize,
	}
	if !cfg.BallTree {
		t.rx = make([]float64, data.N)
		t.xcos = make([]float64, data.N)
		t.xsin = make([]float64, data.N)
	}
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	b := &builder{data: data, rng: rng, tree: t}
	b.build(t.ids, 0)
	t.centers = &vec.Matrix{Data: b.centers, N: len(t.nodes), D: data.D}
	t.points = data.SubsetRows(t.ids)
	if cfg.Quantize {
		t.qz = quant.NewQuantizer(t.points)
		t.codes = t.qz.EncodeMatrix(t.points)
	}
	return t
}

type builder struct {
	data    *vec.Matrix
	rng     *rand.Rand
	tree    *Tree
	centers []float32 // packed centers, row ni = center of arena node ni
}

// build recursively constructs the subtree over ids, which occupies positions
// [offset, offset+len(ids)) of the final reordered storage. It partitions
// (and, in leaves, sorts) ids in place and returns the arena index of the
// subtree root. Internal nodes are appended before their children (preorder)
// with their center filled in afterwards via Lemma 1.
func (b *builder) build(ids []int32, offset int32) int32 {
	if len(ids) <= b.tree.leafSize {
		b.tree.leaves++
		return b.buildLeaf(ids, offset)
	}

	d := b.data.D
	ni := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, nodeRec{
		start: offset,
		end:   offset + int32(len(ids)),
		left:  noChild,
		right: noChild,
	})
	b.centers = append(b.centers, make([]float32, d)...) // filled below

	nl := partition.SeedGrow(b.data, ids, b.rng)
	left := b.build(ids[:nl], offset)
	right := b.build(ids[nl:], offset+int32(nl))
	b.tree.nodes[ni].left = left
	b.tree.nodes[ni].right = right

	// Lemma 1: N.c * |N| = N.lc.c * |N.lc| + N.rc.c * |N.rc|, so the center
	// of an internal node costs O(d) once its children are built.
	center := b.centers[int(ni)*d : (int(ni)+1)*d]
	combineCenters(center, &b.tree.nodes[ni], b.tree, b.centers)
	b.tree.nodes[ni].centerNorm = vec.Norm(center)
	_, maxDist := b.data.MaxDistFrom(ids, center)
	b.tree.nodes[ni].radius = maxDist * (1 + radiusSlack)
	return ni
}

// combineCenters applies Lemma 1 to derive a parent's center from its
// children's centers and counts, writing into dst.
func combineCenters(dst []float32, n *nodeRec, t *Tree, centers []float32) {
	d := len(dst)
	lc := centers[int(n.left)*d : (int(n.left)+1)*d]
	rc := centers[int(n.right)*d : (int(n.right)+1)*d]
	cl := float64(t.nodes[n.left].count())
	cr := float64(t.nodes[n.right].count())
	inv := 1 / (cl + cr)
	for i := range dst {
		dst[i] = float32((cl*float64(lc[i]) + cr*float64(rc[i])) * inv)
	}
}

// buildLeaf computes the leaf's ball (center, radius, r_x) and cone
// (||x||cos phi_x, ||x||sin phi_x) structures — Algorithm 4 lines 3-9 — and
// sorts the leaf's ids in descending order of r_x so the point-level ball
// bound prunes in a batch. The structures land in the tree's
// position-indexed arrays at [offset, offset+len(ids)). A Ball-Tree leaf
// stops after its center and radius, leaving ids in build order.
func (b *builder) buildLeaf(ids []int32, offset int32) int32 {
	t := b.tree
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, nodeRec{
		start: offset,
		end:   offset + int32(len(ids)),
		left:  noChild,
		right: noChild,
	})
	center := b.data.Centroid(ids)
	b.centers = append(b.centers, center...)
	centerNorm := vec.Norm(center)
	t.nodes[ni].centerNorm = centerNorm
	if t.rx == nil {
		_, maxDist := b.data.MaxDistFrom(ids, center)
		t.nodes[ni].radius = maxDist * (1 + radiusSlack)
		return ni
	}

	radii := make([]float64, len(ids))
	for i, id := range ids {
		radii[i] = vec.Dist(b.data.Row(int(id)), center)
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool { return radii[order[a]] > radii[order[c]] })

	sortedIDs := make([]int32, len(ids))
	for pos, idx := range order {
		id := ids[idx]
		sortedIDs[pos] = id
		gpos := int(offset) + pos
		r := radii[idx]
		t.rx[gpos] = r * (1 + radiusSlack)
		x := b.data.Row(int(id))
		xnorm := vec.Norm(x)
		var xcos float64
		if centerNorm > 0 {
			xcos = vec.Dot(x, center) / centerNorm
		}
		// Clamp |cos phi_x| <= 1 scaled by ||x||, then derive the rejection;
		// rounding can push the projection a hair past the norm.
		if xcos > xnorm {
			xcos = xnorm
		} else if xcos < -xnorm {
			xcos = -xnorm
		}
		t.xcos[gpos] = xcos
		t.xsin[gpos] = math.Sqrt(math.Max(0, xnorm*xnorm-xcos*xcos))
	}
	copy(ids, sortedIDs)
	if len(ids) > 0 {
		t.nodes[ni].radius = t.rx[offset] // already slack-inflated, rx descending
	}
	return ni
}
