package p2h

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"
	"testing"
)

var printParity = flag.Bool("parity-print", false, "print the balltree parity digests instead of checking them")

// ballTreeParityDigests pins the balltree kind's answers and work counters.
// Each entry is the SHA-256 of the JSON encoding of every result list and
// every Stats value that ballTreeDigest produces for one index. They were
// made by running
//
//	go test -run TestBallTreeParity -parity-print .
//
// at commit d53532d, the last commit in which Ball-Tree had its own tree
// package (internal/balltree), and must not be regenerated: they are the
// evidence that the Ball-Tree build configuration of internal/bctree
// answers, prunes and counts exactly as that package did.
var ballTreeParityDigests = map[string]string{
	"Msong/leaf100/quant=false": "5562517f05be05252ae9d709e5093a3e28f11c00d68482508c306316fd6ee5f9",
	"Msong/leaf100/quant=true":  "8c803a0bad9745c6fc00d1deb6929beed41d3fefa16400407ab04598a744d2c1",
	"Msong/leaf24/quant=false":  "b79e4ab1df72c937d87e470061bc3798c3eb158315d6a19b1c97e0a6c85ca09d",
	"Msong/leaf24/quant=true":   "0422b1c6b2d32e9b1f44f48981e0c04bebb7948c4927c2e88fad0913aab7ecfa",
	"Msong/leaf7/quant=false":   "7d147bf264f98bed345b38d489f4832cdd9d2485f0bb8dd3b90c62bac837b5ee",
	"Msong/leaf7/quant=true":    "4543db01f68a096a041dcc1d1432d355b7e24e87f141204e508024b8c13e3656",
	"Sift/leaf100/quant=false":  "73ad855c3024042e709deccaa785e956f2d69c41c1c6445acef2e408d1ae1499",
	"Sift/leaf100/quant=true":   "7eed5a0895bdbe5c07f7ea3bfa95f35c901cd21d0c3fe984f743bd7208e57e1d",
	"Sift/leaf24/quant=false":   "bff09711065707f9d6b1e4c8cf771616250b021bf426dfa65bd01921e455577d",
	"Sift/leaf24/quant=true":    "5db3f48e92580f16b825ca016d4ead42d03921f3e05500580de6c06a0d4d2939",
	"Sift/leaf7/quant=false":    "5504b243adb0fa1035b9d9c96a1d472b71d1c949f169b512f52194f98a4c7daa",
	"Sift/leaf7/quant=true":     "1f93c034eea2caa5c444083d1dc4ae936b638d4eb04b4a318fbb92ec56f0a450",
	"golden":                    "6cc437394cbdca6f43751a612ba8d5a02f708d30790e45a4c1205e24437e8f58",
	"legacy-v1":                 "27f2a6eae9bdc2350c9441333238d385fd2c69494c883847a078f80a512ae331",
}

// parityAttrs gives row i a tag set and a score field so the predicate
// options have something to push down against.
func parityAttrs(n int) []PointAttrs {
	points := make([]PointAttrs, n)
	for i := range points {
		var tags []string
		if i%50 == 0 {
			tags = append(tags, "hot")
		}
		if i%2 == 0 {
			tags = append(tags, "even")
		}
		points[i] = PointAttrs{Tags: tags, Floats: map[string]float64{"score": float64(i%1000) / 1000}}
	}
	return points
}

// parityOptions is the option matrix the digests cover: exact, k=1, k>n,
// three budgets, the lower-bound preference, a Filter closure, tag and
// or-range predicates with and without a budget, and the quantized filter
// switched off.
func parityOptions(n int) []SearchOptions {
	or := OneOf(TagIs("hot"), FieldBetween("score", 0.2, 0.25))
	return []SearchOptions{
		{K: 10},
		{K: 1},
		{K: n + 5},
		{K: 10, Budget: 50},
		{K: 10, Budget: 500},
		{K: 10, Budget: 3000},
		{K: 10, Preference: PrefLowerBound},
		{K: 10, Filter: func(id int32) bool { return id%3 != 0 }},
		{K: 10, Pred: TagIs("even")},
		{K: 10, Pred: or},
		{K: 10, Pred: TagIs("even"), Budget: 500},
		{K: 10, Pred: or, Budget: 500},
		{K: 10, DisableQuantFilter: true},
	}
}

// ballTreeDigest attaches parityAttrs to ix, runs every parity option per
// query and as one SearchBatch, and hashes the JSON of all results and stats.
func ballTreeDigest(t *testing.T, ix Index, queries *Matrix) string {
	t.Helper()
	if err := AttachAttributes(ix, parityAttrs(ix.N())); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, opts := range parityOptions(ix.N()) {
		for qi := 0; qi < queries.N; qi++ {
			res, st := ix.Search(queries.Row(qi), opts)
			if err := enc.Encode([]any{res, st}); err != nil {
				t.Fatal(err)
			}
		}
		res, st := ix.(BatchIndex).SearchBatch(queries, opts)
		if err := enc.Encode([]any{res, st}); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBallTreeParity checks the balltree kind against the digests of the
// separate Ball-Tree package it replaced: fresh builds over two surrogate
// sets, three leaf sizes, float and quantized, plus the committed golden
// container and the version 1 legacy stream.
func TestBallTreeParity(t *testing.T) {
	got := map[string]string{}
	for _, set := range []struct {
		name string
		n    int
	}{{"Sift", 3000}, {"Msong", 2000}} {
		data := GenerateDataset(set.name, set.n, 5)
		queries := GenerateQueries(data, 12, 6)
		for _, leaf := range []int{100, 24, 7} {
			for _, quant := range []bool{false, true} {
				ix, err := New(data, Spec{Kind: KindBallTree, LeafSize: leaf, Seed: 9, Quantize: quant})
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/leaf%d/quant=%v", set.name, leaf, quant)] = ballTreeDigest(t, ix, queries)
			}
		}
	}
	for name, fixture := range map[string]struct {
		path string
		dim  int
	}{
		"golden":    {filepath.Join("testdata", "golden", "balltree.p2h"), 8},
		"legacy-v1": {filepath.Join("internal", "bctree", "testdata", "legacy_v1.p2hbt"), 12},
	} {
		ix, err := Open(fixture.path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if KindOf(ix) != KindBallTree {
			t.Fatalf("%s: KindOf = %q", name, KindOf(ix))
		}
		got[name] = ballTreeDigest(t, ix, GenerateQueries(specTestData(200, fixture.dim, 13), 12, 14))
	}

	if *printParity {
		for name, digest := range got {
			fmt.Printf("\t%q: %q,\n", name, digest)
		}
		return
	}
	if len(got) != len(ballTreeParityDigests) {
		t.Fatalf("computed %d digests, %d pinned", len(got), len(ballTreeParityDigests))
	}
	for name, want := range ballTreeParityDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}
