package bctree

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"p2h/internal/binio"
	"p2h/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 14, Clusters: 6}, 700, 1)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 10, 2)
		orig := Build(data, Config{LeafSize: 30, Seed: 3, BallTree: ball})

		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved := append([]byte(nil), buf.Bytes()...)
		restored, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if restored.N() != orig.N() || restored.Dim() != orig.Dim() ||
			restored.Nodes() != orig.Nodes() || restored.Leaves() != orig.Leaves() ||
			restored.LeafSize() != orig.LeafSize() || restored.BallTree() != ball {
			t.Fatalf("metadata mismatch: %s vs %s", restored, orig)
		}
		checkTreeInvariants(t, restored)
		// Restored trees must search identically, including pruning stats, and
		// across ablation variants (the leaf arrays must survive the trip).
		for i := 0; i < queries.N; i++ {
			q := queries.Row(i)
			for _, variant := range allVariants() {
				variant.K = 7
				a, sa := orig.Search(q, variant)
				b, sb := restored.Search(q, variant)
				if len(a) != len(b) {
					t.Fatalf("query %d: result counts differ", i)
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("query %d rank %d: %v != %v", i, j, a[j], b[j])
					}
				}
				if sa != sb {
					t.Fatalf("query %d: stats differ: %+v != %+v", i, sa, sb)
				}
			}
		}
		var again bytes.Buffer
		if err := restored.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), saved) {
			t.Fatal("Save -> Load -> Save is not byte-identical")
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 6}, 100, 4)
		data := raw.AppendOnes()
		orig := Build(data, Config{LeafSize: 10, Seed: 5, BallTree: ball})
		path := filepath.Join(t.TempDir(), "tree.p2h")
		if err := orig.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Nodes() != orig.Nodes() {
			t.Fatalf("nodes %d != %d", restored.Nodes(), orig.Nodes())
		}
	})
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	forEachConfig(t, func(t *testing.T, ball bool) {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 5}, 80, 6)
		data := raw.AppendOnes()
		orig := Build(data, Config{LeafSize: 10, Seed: 7, BallTree: ball})
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()

		// The other family's version 1 header over this payload: the
		// layouts differ, so the stream must not parse.
		other := "balltree magic"
		if ball {
			other = "bctree magic"
		}
		// Flip the node-count header field (offset: 8 magic + 4 leafSize + 4
		// n + 4 d).
		badNodes := append([]byte(nil), good...)
		badNodes[8+12] = 0xFF
		badNodes[8+13] = 0xFF
		cases := map[string][]byte{
			"empty":       {},
			"bad magic":   append([]byte("XXXXXXXX"), good[8:]...),
			"short magic": good[:4],
			"truncated":   good[:len(good)-9],
			"half":        good[:len(good)/2],
			"node count":  badNodes,
			other:         append(magicFor(!ball, 1), good[8:]...),
		}
		for name, payload := range cases {
			if _, err := Load(bytes.NewReader(payload)); !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
			}
		}
	})
}

// TestLoadRejectsNonPermutationIDs overwrites ids[1] with ids[0] in a saved
// tree of every magic. Such a tree would answer with one id twice and never
// return another point, so every loader must refuse it.
func TestLoadRejectsNonPermutationIDs(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 6, Clusters: 4}, 300, 8)
	data := raw.AppendOnes()
	for _, ball := range []bool{false, true} {
		for _, quantize := range []bool{false, true} {
			tree := Build(data, Config{LeafSize: 24, Seed: 9, BallTree: ball, Quantize: quantize})
			var v1, v23 bytes.Buffer
			if err := writeLegacyV1(&v1, tree); err != nil {
				t.Fatal(err)
			}
			if err := tree.Save(&v23); err != nil {
				t.Fatal(err)
			}
			for _, stream := range [][]byte{v1.Bytes(), v23.Bytes()} {
				magic := string(stream[:8])
				if _, err := Load(bytes.NewReader(stream)); err != nil {
					t.Fatalf("%s: intact stream: %v", magic, err)
				}
				// The id map follows the 8-byte magic and five int32 header
				// fields in every version.
				const ids = 8 + 5*4
				bad := append([]byte(nil), stream...)
				copy(bad[ids+4:ids+8], bad[ids:ids+4])
				if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, binio.ErrCorrupt) {
					t.Fatalf("%s: duplicated id: want ErrCorrupt, got %v", magic, err)
				}
			}
		}
	}
}
