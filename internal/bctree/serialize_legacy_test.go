package bctree

import (
	"bytes"
	"io"
	"os"
	"testing"

	"p2h/internal/binio"
	"p2h/internal/dataset"
)

// writeLegacyV1 emits the version 1 recursive record stream for a tree, as
// (*Tree).Save wrote it before the flat arena era: each BC-Tree leaf record
// carries its own slices of the point-level arrays, and a Ball-Tree record
// has neither those nor centerNorm. Tests use it to prove the loader
// still understands the old format for arbitrary trees; the checked-in
// fixture proves byte compatibility with the real historical writer.
func writeLegacyV1(w io.Writer, t *Tree) error {
	bw := binio.NewWriter(w)
	ball := t.BallTree()
	bw.Bytes(magicFor(ball, 1))
	bw.I32(int32(t.leafSize))
	bw.I32(int32(t.points.N))
	bw.I32(int32(t.points.D))
	bw.I32(int32(len(t.nodes)))
	bw.I32(int32(t.leaves))
	bw.I32s(t.ids)
	bw.F32s(t.points.Data)
	var save func(ni int32)
	save = func(ni int32) {
		n := &t.nodes[ni]
		if n.isLeaf() {
			bw.U8(1)
		} else {
			bw.U8(0)
		}
		bw.I32(n.start)
		bw.I32(n.end)
		bw.F64(n.radius)
		if !ball {
			bw.F64(n.centerNorm)
		}
		bw.F32s(t.center(ni))
		if n.isLeaf() && ball {
			return
		}
		if n.isLeaf() {
			bw.F64s(t.rx[n.start:n.end])
			bw.F64s(t.xcos[n.start:n.end])
			bw.F64s(t.xsin[n.start:n.end])
			return
		}
		save(n.left)
		save(n.right)
	}
	save(0)
	return bw.Flush()
}

// expectSameSearch asserts two trees answer a deterministic query workload
// identically across all ablation variants, including pruning stats.
func expectSameSearch(t *testing.T, a, b *Tree, seed int64) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "fixture", Family: dataset.FamilyClustered, RawDim: a.Dim() - 1, Clusters: 6}, 100, seed)
	queries := dataset.GenerateQueries(raw, 12, seed+1)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		for _, variant := range allVariants() {
			variant.K = 7
			ra, sa := a.Search(q, variant)
			rb, sb := b.Search(q, variant)
			if len(ra) != len(rb) {
				t.Fatalf("query %d: result counts differ: %d != %d", i, len(ra), len(rb))
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("query %d rank %d: %v != %v", i, j, ra[j], rb[j])
				}
			}
			if sa != sb {
				t.Fatalf("query %d: stats differ: %+v != %+v", i, sa, sb)
			}
		}
	}
}

// TestLoadLegacyFixture loads bytes written by the historical version 1
// writers (BC-Tree and Ball-Tree) and checks the restored tree matches a
// fresh build of the same data.
func TestLoadLegacyFixture(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		path := "testdata/legacy_v1.p2hbc"
		if ball {
			path = "testdata/legacy_v1.p2hbt"
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		restored, err := Load(f)
		if err != nil {
			t.Fatalf("loading legacy fixture: %v", err)
		}
		raw := dataset.Generate(dataset.Spec{Name: "fixture", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 6}, 300, 42)
		fresh := Build(raw.AppendOnes(), Config{LeafSize: 20, Seed: 7, BallTree: ball})
		if restored.N() != fresh.N() || restored.Dim() != fresh.Dim() ||
			restored.Nodes() != fresh.Nodes() || restored.Leaves() != fresh.Leaves() ||
			restored.LeafSize() != fresh.LeafSize() || restored.BallTree() != ball {
			t.Fatalf("metadata mismatch: %s vs %s", restored, fresh)
		}
		checkTreeInvariants(t, restored)
		expectSameSearch(t, restored, fresh, 42)
	})
}

// TestLegacyRoundTripThroughV2 checks the conversion chain: a tree written in
// the old format, loaded (converting to the flat arena), re-saved in version
// 2, and loaded again must search identically to the original.
func TestLegacyRoundTripThroughV2(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyHeavyTail, RawDim: 9}, 450, 11)
		orig := Build(raw.AppendOnes(), Config{LeafSize: 15, Seed: 5, BallTree: ball})

		var v1 bytes.Buffer
		if err := writeLegacyV1(&v1, orig); err != nil {
			t.Fatal(err)
		}
		fromV1, err := Load(&v1)
		if err != nil {
			t.Fatal(err)
		}
		var v2 bytes.Buffer
		if err := fromV1.Save(&v2); err != nil {
			t.Fatal(err)
		}
		fromV2, err := Load(&v2)
		if err != nil {
			t.Fatal(err)
		}
		checkTreeInvariants(t, fromV2)
		expectSameSearch(t, orig, fromV1, 11)
		expectSameSearch(t, orig, fromV2, 11)
	})
}
