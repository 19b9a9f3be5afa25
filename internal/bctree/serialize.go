package bctree

import (
	"bytes"
	"io"
	"os"

	"p2h/internal/binio"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// Serialization formats. Version 2 mirrors the in-memory flat arena:
// columnar node arrays and position-indexed point-level structures instead
// of a recursive record stream. Version 3 is version 2 plus a trailing
// quantization section (grid tables and the 8-bit code mirror). Version 1
// (the pointer tree era) is still accepted by Load and converted to the
// arena on the fly; Save writes version 2, or version 3 when the tree is
// quantized, so unquantized files stay readable by older code.
//
// Each version exists in two families: P2HBC00v for BC-Trees and P2HBT00v
// for the Ball-Tree configuration, whose streams are the same layout without
// the per-node centerNorm column and the point-level arrays — byte for byte
// what the Ball-Tree package of earlier releases wrote.
const (
	magicBC = "P2HBC00"
	magicBT = "P2HBT00"
)

// magicFor returns the stream header of the given family and version.
func magicFor(ball bool, version byte) []byte {
	family := magicBC
	if ball {
		family = magicBT
	}
	return append([]byte(family), '0'+version)
}

// maxSerialDim guards against corrupt headers allocating absurd buffers.
const maxSerialDim = 1 << 20

// Save writes the tree to w in the version 2 flat format, self-contained so
// Load can restore it without the original data matrix. A BC-Tree's
// point-level ball and cone arrays ride along so restored trees prune
// identically.
func (t *Tree) Save(w io.Writer) error {
	ball := t.BallTree()
	bw := binio.NewWriter(w)
	if t.qz != nil {
		bw.Bytes(magicFor(ball, 3))
	} else {
		bw.Bytes(magicFor(ball, 2))
	}
	bw.I32(int32(t.leafSize))
	bw.I32(int32(t.points.N))
	bw.I32(int32(t.points.D))
	bw.I32(int32(len(t.nodes)))
	bw.I32(int32(t.leaves))
	bw.I32s(t.ids)
	bw.F32s(t.points.Data)
	bw.F32s(t.centers.Data)
	for i := range t.nodes {
		bw.F64(t.nodes[i].radius)
		if !ball {
			bw.F64(t.nodes[i].centerNorm)
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		bw.I32(n.start)
		bw.I32(n.end)
		bw.I32(n.left)
		bw.I32(n.right)
	}
	if !ball {
		bw.F64s(t.rx)
		bw.F64s(t.xcos)
		bw.F64s(t.xsin)
	}
	if t.qz != nil {
		quant.WriteSection(bw, t.qz, t.codes)
	}
	return bw.Flush()
}

// Load restores a tree of either family written by Save (versions 2 and 3)
// or by the version 1 format of earlier releases; a Ball-Tree stream
// restores the Ball-Tree configuration. The stream is validated
// structurally; corrupt input yields an error wrapping binio.ErrCorrupt.
func Load(r io.Reader) (*Tree, error) {
	br := binio.NewReader(r)
	magic := br.Raw(len(magicBC) + 1)
	if err := br.Err(); err != nil {
		return nil, err
	}
	var version byte
	ball := false
	for v := byte(1); v <= 3; v++ {
		if bytes.Equal(magic, magicFor(false, v)) {
			version = v
		} else if bytes.Equal(magic, magicFor(true, v)) {
			version, ball = v, true
		}
	}
	if version == 0 {
		br.Fail("bad magic %q", magic)
		return nil, br.Err()
	}

	leafSize := int(br.I32())
	n := int(br.I32())
	d := int(br.I32())
	nodes := int(br.I32())
	leaves := int(br.I32())
	if err := br.Err(); err != nil {
		return nil, err
	}
	if leafSize <= 0 || n <= 0 || d <= 0 || d > maxSerialDim {
		br.Fail("bad header: leafSize=%d n=%d d=%d", leafSize, n, d)
		return nil, br.Err()
	}
	if nodes < 1 || nodes > 2*n || leaves < 1 || leaves > nodes {
		br.Fail("bad node counts: nodes=%d leaves=%d n=%d", nodes, leaves, n)
		return nil, br.Err()
	}
	t := &Tree{leafSize: leafSize, leaves: leaves}
	t.ids = br.I32s(n)
	data := br.F32s(n * d)
	if err := br.Err(); err != nil {
		return nil, err
	}
	t.points = &vec.Matrix{Data: data, N: n, D: d}

	if version >= 2 {
		loadFlat(br, t, nodes, d, ball)
	} else {
		loadLegacy(br, t, nodes, d, ball)
	}
	if version == 3 && br.Err() == nil {
		t.qz, t.codes = quant.ReadSection(br, t.points)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if err := validateArena(br, t, leaves); err != nil {
		return nil, err
	}
	if ball {
		// The Ball-Tree family does not store centerNorm; derive it so node
		// records mean the same in both configurations.
		for i := range t.nodes {
			t.nodes[i].centerNorm = vec.Norm(t.center(int32(i)))
		}
	}
	return t, nil
}

// loadFlat reads the version 2 columnar node arrays and, unless ball, the
// position-indexed point-level structures.
func loadFlat(br *binio.Reader, t *Tree, nodes, d int, ball bool) {
	centers := br.F32s(nodes * d)
	if br.Err() != nil {
		return
	}
	t.centers = &vec.Matrix{Data: centers, N: nodes, D: d}
	t.nodes = make([]nodeRec, nodes)
	for i := range t.nodes {
		t.nodes[i].radius = br.F64()
		if !ball {
			t.nodes[i].centerNorm = br.F64()
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		n.start = br.I32()
		n.end = br.I32()
		n.left = br.I32()
		n.right = br.I32()
	}
	if !ball {
		n := t.points.N
		t.rx = br.F64s(n)
		t.xcos = br.F64s(n)
		t.xsin = br.F64s(n)
	}
}

// loadLegacy reads the version 1 recursive record stream (leaf flag, range,
// radius, centerNorm, center, per-leaf point arrays, then children; a
// Ball-Tree stream has neither centerNorm nor point arrays), appending nodes
// to the arena in the file's preorder and scattering the leaf arrays into
// the position-indexed layout.
func loadLegacy(br *binio.Reader, t *Tree, nodes, d int, ball bool) {
	t.centers = &vec.Matrix{Data: make([]float32, 0, nodes*d), N: 0, D: d}
	if !ball {
		n := t.points.N
		t.rx = make([]float64, n)
		t.xcos = make([]float64, n)
		t.xsin = make([]float64, n)
	}
	ld := &legacyLoader{br: br, t: t, budget: nodes}
	ld.load()
	if br.Err() == nil && ld.budget != 0 {
		br.Fail("node count mismatch: %d unread", ld.budget)
	}
	t.centers.N = len(t.nodes)
}

type legacyLoader struct {
	br     *binio.Reader
	t      *Tree
	budget int // remaining nodes allowed; bounds recursion on corrupt input
}

func (ld *legacyLoader) load() int32 {
	if ld.budget <= 0 {
		ld.br.Fail("more nodes than declared")
		return noChild
	}
	ld.budget--
	ni := int32(len(ld.t.nodes))
	leaf := ld.br.U8()
	ld.t.nodes = append(ld.t.nodes, nodeRec{
		start: ld.br.I32(),
		end:   ld.br.I32(),
		left:  noChild,
		right: noChild,
	})
	nd := &ld.t.nodes[ni]
	nd.radius = ld.br.F64()
	if ld.t.rx != nil {
		nd.centerNorm = ld.br.F64()
	}
	ld.t.centers.Data = append(ld.t.centers.Data, ld.br.F32s(ld.t.centers.D)...)
	if ld.br.Err() != nil {
		return ni
	}
	if nd.start < 0 || nd.end <= nd.start || nd.end > int32(ld.t.points.N) {
		ld.br.Fail("node range [%d,%d) invalid", nd.start, nd.end)
		return ni
	}
	if leaf == 1 {
		if ld.t.rx == nil {
			return ni
		}
		cnt := int(nd.count())
		start := int(nd.start)
		copy(ld.t.rx[start:start+cnt], ld.br.F64s(cnt))
		copy(ld.t.xcos[start:start+cnt], ld.br.F64s(cnt))
		copy(ld.t.xsin[start:start+cnt], ld.br.F64s(cnt))
		return ni
	}
	left := ld.load()
	right := ld.load()
	ld.t.nodes[ni].left = left
	ld.t.nodes[ni].right = right
	return ni
}

// validateArena checks the structural invariants shared by every format:
// ids a permutation of [0, n), in-range node fields, the root covering
// [0, n), children partitioning their parent at strictly larger arena
// indices, every node reachable from the root exactly once with the declared
// leaf count, and descending radii within each leaf's slice of the
// point-level arrays.
func validateArena(br *binio.Reader, t *Tree, leaves int) error {
	nodes := int32(len(t.nodes))
	n := int32(t.points.N)
	seen := make([]uint64, (n+63)/64)
	for _, id := range t.ids {
		if id < 0 || id >= n {
			br.Fail("id %d out of range", id)
			return br.Err()
		}
		if seen[id/64]&(1<<(id%64)) != 0 {
			br.Fail("id %d appears twice", id)
			return br.Err()
		}
		seen[id/64] |= 1 << (id % 64)
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.start < 0 || nd.end <= nd.start || nd.end > n {
			br.Fail("node %d range [%d,%d) invalid for n=%d", i, nd.start, nd.end, n)
			return br.Err()
		}
		if nd.radius < 0 || nd.centerNorm < 0 {
			br.Fail("node %d negative radius %v or norm %v", i, nd.radius, nd.centerNorm)
			return br.Err()
		}
		if (nd.left == noChild) != (nd.right == noChild) {
			br.Fail("node %d half-leaf: left=%d right=%d", i, nd.left, nd.right)
			return br.Err()
		}
		if nd.left != noChild {
			if nd.left <= int32(i) || nd.left >= nodes || nd.right <= int32(i) || nd.right >= nodes {
				br.Fail("node %d children %d,%d out of order", i, nd.left, nd.right)
				return br.Err()
			}
		}
	}
	if t.nodes[0].start != 0 || t.nodes[0].end != n {
		br.Fail("root range [%d,%d) != [0,%d)", t.nodes[0].start, t.nodes[0].end, n)
		return br.Err()
	}
	visited := make([]bool, nodes)
	leafCount := 0
	var walk func(ni int32)
	walk = func(ni int32) {
		if br.Err() != nil {
			return
		}
		if visited[ni] {
			br.Fail("node %d reachable twice", ni)
			return
		}
		visited[ni] = true
		nd := &t.nodes[ni]
		if nd.isLeaf() {
			leafCount++
			for p := nd.start + 1; p < nd.end && t.rx != nil; p++ {
				if t.rx[p] > t.rx[p-1] {
					br.Fail("leaf %d radii not descending at position %d", ni, p)
					return
				}
			}
			return
		}
		l, r := &t.nodes[nd.left], &t.nodes[nd.right]
		if l.start != nd.start || r.end != nd.end || l.end != r.start {
			br.Fail("children do not partition [%d,%d)", nd.start, nd.end)
			return
		}
		walk(nd.left)
		walk(nd.right)
	}
	walk(0)
	if err := br.Err(); err != nil {
		return err
	}
	for i, ok := range visited {
		if !ok {
			br.Fail("node %d unreachable from root", i)
			return br.Err()
		}
	}
	if leafCount != leaves {
		br.Fail("leaf count %d != declared %d", leafCount, leaves)
		return br.Err()
	}
	return nil
}

// SaveFile writes the tree to the named file.
func (t *Tree) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile restores a tree from the named file.
func LoadFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
