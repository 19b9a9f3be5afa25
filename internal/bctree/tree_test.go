package bctree

import (
	"math"
	"testing"

	"p2h/internal/dataset"
	"p2h/internal/vec"
)

func buildTestData(t *testing.T, family dataset.Family, n, d int, seed int64) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: family, RawDim: d, Clusters: 8}, n, seed)
	queries := dataset.GenerateQueries(raw, 10, seed+1)
	return raw.AppendOnes(), queries
}

// forEachConfig runs body on the BC-Tree configuration and again, as
// subtest "balltree", on the Ball-Tree configuration (Config.BallTree), so
// every structural and search check covers both trees of the package.
func forEachConfig(t *testing.T, body func(t *testing.T, ball bool)) {
	body(t, false)
	t.Run("balltree", func(t *testing.T) { body(t, true) })
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		Build(vec.NewMatrix(0, 4), Config{BallTree: ball})
	})
}

func TestBuildBasicInvariants(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		data, _ := buildTestData(t, dataset.FamilyClustered, 500, 16, 1)
		tree := Build(data, Config{LeafSize: 20, Seed: 1, BallTree: ball})
		if tree.N() != 500 || tree.Dim() != 17 {
			t.Fatalf("tree %s", tree)
		}
		if tree.LeafSize() != 20 {
			t.Fatalf("leaf size %d", tree.LeafSize())
		}
		if tree.BallTree() != ball {
			t.Fatalf("BallTree() = %v, built with %v", tree.BallTree(), ball)
		}
		checkTreeInvariants(t, tree)
	})
}

// checkTreeInvariants verifies the structural properties of Algorithm 4:
// the Ball-Tree invariants (partition, containment, leaf size) plus, in the
// BC-Tree configuration, the leaf structures: r_x descending, the ball
// identity r_x=||x-c||, and the cone identity xcos^2 + xsin^2 = ||x||^2
// together with the Figure 4 relation
// (||x||sin phi)^2 + (||c|| - ||x||cos phi)^2 = r_x^2. A Ball-Tree must carry
// no point-level arrays at all.
func checkTreeInvariants(t *testing.T, tree *Tree) {
	t.Helper()
	seen := make([]bool, tree.N())
	for _, id := range tree.ids {
		if seen[id] {
			t.Fatalf("id %d appears twice in reordering", id)
		}
		seen[id] = true
	}
	want := tree.N()
	if tree.BallTree() {
		want = 0
	}
	if len(tree.rx) != want || len(tree.xcos) != want || len(tree.xsin) != want {
		t.Fatalf("point-level arrays sized %d/%d/%d, want %d",
			len(tree.rx), len(tree.xcos), len(tree.xsin), want)
	}
	var nodes, leaves int
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &tree.nodes[ni]
		center := tree.center(ni)
		nodes++
		if n.count() <= 0 {
			t.Fatal("empty node")
		}
		if got := vec.Norm(center); math.Abs(got-n.centerNorm) > 1e-9*(1+got) {
			t.Fatalf("stale centerNorm: %v != %v", n.centerNorm, got)
		}
		for pos := n.start; pos < n.end; pos++ {
			d := vec.Dist(tree.points.Row(int(pos)), center)
			if d > n.radius {
				t.Fatalf("point at pos %d outside ball: %v > %v", pos, d, n.radius)
			}
		}
		if n.isLeaf() {
			leaves++
			if int(n.count()) > tree.leafSize {
				t.Fatalf("leaf size %d > N0=%d", n.count(), tree.leafSize)
			}
			for pos := int(n.start); pos < int(n.end) && !tree.BallTree(); pos++ {
				i := pos - int(n.start)
				if i > 0 && tree.rx[pos] > tree.rx[pos-1]+1e-12 {
					t.Fatalf("rx not descending at %d: %v > %v", i, tree.rx[pos], tree.rx[pos-1])
				}
				x := tree.points.Row(pos)
				r := vec.Dist(x, center)
				if math.Abs(tree.rx[pos]-r) > 1e-6*(1+r) {
					t.Fatalf("rx[%d]=%v but true dist %v", i, tree.rx[pos], r)
				}
				xn := vec.Norm(x)
				if got := math.Hypot(tree.xcos[pos], tree.xsin[pos]); math.Abs(got-xn) > 1e-6*(1+xn) {
					t.Fatalf("cone identity broken: hypot=%v, ||x||=%v", got, xn)
				}
				if tree.xsin[pos] < 0 {
					t.Fatalf("xsin must be nonnegative, got %v", tree.xsin[pos])
				}
				// Figure 4: the rejection and the center-offset projection
				// form a right triangle with hypotenuse r_x.
				lhs := tree.xsin[pos]*tree.xsin[pos] + (n.centerNorm-tree.xcos[pos])*(n.centerNorm-tree.xcos[pos])
				if math.Abs(lhs-r*r) > 1e-5*(1+r*r) {
					t.Fatalf("Figure 4 identity broken: %v != %v", lhs, r*r)
				}
			}
			return
		}
		l, r := &tree.nodes[n.left], &tree.nodes[n.right]
		if l.start != n.start || r.end != n.end || l.end != r.start {
			t.Fatalf("children do not partition parent")
		}
		if n.left <= ni || n.right <= ni {
			t.Fatalf("children %d,%d not after parent %d in preorder arena", n.left, n.right, ni)
		}
		walk(n.left)
		walk(n.right)
	}
	walk(0)
	if leaves != tree.Leaves() || nodes != tree.Nodes() {
		t.Fatalf("node accounting: counted %d/%d, tree says %d/%d", nodes, leaves, tree.Nodes(), tree.Leaves())
	}
}

// TestLemma1CenterMatchesDirectCentroid verifies that internal centers
// assembled bottom-up via Lemma 1 equal the direct centroid of the node's
// points, up to float32 storage rounding.
func TestLemma1CenterMatchesDirectCentroid(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		data, _ := buildTestData(t, dataset.FamilyHeavyTail, 700, 10, 2)
		tree := Build(data, Config{LeafSize: 30, Seed: 2, BallTree: ball})
		var walk func(ni int32)
		walk = func(ni int32) {
			n := &tree.nodes[ni]
			center := tree.center(ni)
			ids := make([]int32, 0, n.count())
			for pos := n.start; pos < n.end; pos++ {
				ids = append(ids, pos)
			}
			direct := tree.points.Centroid(ids)
			for j := range direct {
				diff := math.Abs(float64(direct[j]) - float64(center[j]))
				scale := math.Max(1, math.Abs(float64(direct[j])))
				if diff > 1e-4*scale {
					t.Fatalf("center[%d] drifted: lemma1=%v direct=%v", j, center[j], direct[j])
				}
			}
			if !n.isLeaf() {
				walk(n.left)
				walk(n.right)
			}
		}
		walk(0)
	})
}

func TestBuildDeterministic(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		data, _ := buildTestData(t, dataset.FamilyClustered, 400, 12, 3)
		a := Build(data, Config{LeafSize: 25, Seed: 9, BallTree: ball})
		b := Build(data, Config{LeafSize: 25, Seed: 9, BallTree: ball})
		if a.Nodes() != b.Nodes() || a.Height() != b.Height() {
			t.Fatal("same seed must build identical trees")
		}
		for i := range a.ids {
			if a.ids[i] != b.ids[i] {
				t.Fatal("same seed must produce identical reordering")
			}
		}
	})
}

func TestBuildAllIdenticalPoints(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		rows := make([][]float32, 64)
		for i := range rows {
			rows[i] = []float32{1, 2, 3}
		}
		data := vec.FromRows(rows).AppendOnes()
		tree := Build(data, Config{LeafSize: 8, Seed: 1, BallTree: ball})
		checkTreeInvariants(t, tree)
		if tree.nodes[0].radius > 1e-6 {
			t.Fatalf("radius of identical points should be ~0, got %v", tree.nodes[0].radius)
		}
	})
}

func TestBuildSinglePoint(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		data := vec.FromRows([][]float32{{1, 2}}).AppendOnes()
		tree := Build(data, Config{BallTree: ball})
		if tree.Nodes() != 1 || tree.Leaves() != 1 || tree.Height() != 1 {
			t.Fatalf("single point tree: %s", tree)
		}
	})
}

func TestNodeCountBound(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		// With N0 >> 1 the paper notes the node count is well below n.
		data, _ := buildTestData(t, dataset.FamilyClustered, 2000, 10, 4)
		tree := Build(data, Config{LeafSize: 100, Seed: 1, BallTree: ball})
		if tree.Nodes() >= 2000/10 {
			t.Fatalf("too many nodes: %d", tree.Nodes())
		}
	})
}

// TestIndexBytesLargerThanBallTreeExtras checks Theorem 6: BC-Tree spends
// exactly 3 extra n-size arrays over the Ball-Tree of the same data and
// seed, and either index stays below the data size at N0=100 (Section V-D).
func TestIndexBytesLargerThanBallTreeExtras(t *testing.T) {
	data, _ := buildTestData(t, dataset.FamilyClustered, 2000, 32, 5)
	tree := Build(data, Config{LeafSize: 100, Seed: 1})
	if tree.IndexBytes() < int64(tree.N())*3*8 {
		t.Fatalf("index accounting misses the 3n arrays: %d", tree.IndexBytes())
	}
	if tree.IndexBytes() >= tree.DataBytes() {
		t.Fatalf("index bytes %d should stay below data bytes %d at N0=100", tree.IndexBytes(), tree.DataBytes())
	}
	t.Run("balltree", func(t *testing.T) {
		ball := Build(data, Config{LeafSize: 100, Seed: 1, BallTree: true})
		ib, db := ball.IndexBytes(), ball.DataBytes()
		if ib <= 0 || db <= 0 {
			t.Fatal("byte accounting must be positive")
		}
		if ib >= db {
			t.Fatalf("index bytes %d should be below data bytes %d", ib, db)
		}
		if extra := tree.IndexBytes() - ib; extra != int64(tree.N())*3*8 {
			t.Fatalf("BC-Tree spends %d bytes over Ball-Tree, want exactly 3n*8 = %d", extra, tree.N()*3*8)
		}
	})
}

func TestDefaultLeafSizeApplied(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		data, _ := buildTestData(t, dataset.FamilyUniform, 300, 8, 2)
		tree := Build(data, Config{BallTree: ball})
		if tree.LeafSize() != DefaultLeafSize {
			t.Fatalf("default leaf size %d", tree.LeafSize())
		}
	})
}

func TestRadiusMonotoneDown(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		// Radii shrink (weakly) from root to leaves on typical data: each
		// child covers a subset. Not a theorem for arbitrary centers, but
		// holds for centroid balls on blobby data; treat violations beyond
		// slack as bugs.
		data, _ := buildTestData(t, dataset.FamilyClustered, 800, 8, 6)
		tree := Build(data, Config{LeafSize: 50, Seed: 2, BallTree: ball})
		var walk func(ni int32, parentR float64)
		walk = func(ni int32, parentR float64) {
			n := &tree.nodes[ni]
			if n.radius > parentR*2+1e-9 {
				t.Fatalf("child radius %v wildly exceeds parent %v", n.radius, parentR)
			}
			if !n.isLeaf() {
				walk(n.left, n.radius)
				walk(n.right, n.radius)
			}
		}
		walk(0, math.Inf(1))
	})
}
