package kdtree

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/pool"
)

func buildTestTree(t *testing.T, method Method) *Tree {
	t.Helper()
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(13, 2000, dom)
	tree, err := BuildTree(pts, dom, 1, Options{Method: method, Depth: 5}, noise.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestTreeBinaryRoundTrip(t *testing.T) {
	for _, method := range []Method{Standard, Hybrid} {
		t.Run(method.String(), func(t *testing.T) {
			tree := buildTestTree(t, method)
			data, err := tree.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseTreeBinary(data)
			if err != nil {
				t.Fatal(err)
			}
			re, err := got.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, re) {
				t.Fatal("binary round trip not bit-identical")
			}
			if got.Method() != tree.Method() || got.Depth() != tree.Depth() ||
				got.Leaves() != tree.Leaves() || got.Nodes() != tree.Nodes() ||
				got.UsedConstrainedInference() != tree.UsedConstrainedInference() {
				t.Fatal("tree shape changed across round trip")
			}
			r := geom.Rect{MinX: 1, MinY: 2, MaxX: 7, MaxY: 9}
			if got.Query(r) != tree.Query(r) {
				t.Fatal("answers changed across round trip")
			}

			if got.Domain() != tree.Domain() || got.Epsilon() != tree.Epsilon() {
				t.Fatalf("envelope changed across round trip: %v/%g", got.Domain(), got.Epsilon())
			}
		})
	}
}

// TestTreeJSONRoundTrip: the JSON dump, read back with encoding/json,
// carries the release — its header and every node and estimate bit for
// bit.
func TestTreeJSONRoundTrip(t *testing.T) {
	tree := buildTestTree(t, Hybrid)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f treeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Head != codec.NewHead(codec.KindKDTree, serializeVersion, tree.Domain(), tree.Epsilon()) ||
		Method(f.Method) != tree.Method() || f.Depth != tree.Depth() || f.UsedCI != tree.UsedConstrainedInference() {
		t.Errorf("dump header %+v method %d depth %d used CI %v", f.Head, f.Method, f.Depth, f.UsedCI)
	}
	if len(f.Nodes) != len(tree.nodes) || len(f.Estimates) != len(tree.estimates) {
		t.Fatalf("dump holds %d nodes and %d estimates, want %d", len(f.Nodes), len(f.Estimates), len(tree.nodes))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, n := range tree.nodes {
		d := f.Nodes[i]
		r := [4]float64{n.rect.MinX, n.rect.MinY, n.rect.MaxX, n.rect.MaxY}
		if d.Rect != r || !same(d.Count, n.count) || !same(d.Variance, n.variance) || !slices.Equal(d.Children, n.children) {
			t.Fatalf("node %d: dump %+v, synopsis %+v", i, d, n)
		}
		if !same(f.Estimates[i], tree.estimates[i]) {
			t.Fatalf("estimate %d: dump %v, synopsis %v", i, f.Estimates[i], tree.estimates[i])
		}
	}
}

func TestTreeBinaryRejectsCorruption(t *testing.T) {
	tree := buildTestTree(t, Hybrid)
	data, err := tree.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 8, 12, 60, len(data) / 2, len(data) - 1} {
			if _, err := ParseTreeBinary(data[:n]); err == nil {
				t.Errorf("accepted %d-byte prefix", n)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := ParseTreeBinary(append(append([]byte(nil), data...), 7)); err == nil {
			t.Error("accepted trailing byte")
		}
	})
	t.Run("bad method", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// method u16 follows header (12) + domain (32) + epsilon (8).
		bad[52] = 9
		if _, err := ParseTreeBinary(bad); err == nil || !strings.Contains(err.Error(), "method") {
			t.Errorf("bad method: err = %v", err)
		}
	})
	t.Run("bad leaf count", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// leaves u32 follows header + domain + eps + method + CI + depth.
		bad[60]++
		if _, err := ParseTreeBinary(bad); err == nil || !strings.Contains(err.Error(), "leaf count") {
			t.Errorf("bad leaf count: err = %v", err)
		}
	})
	t.Run("cyclic child index", func(t *testing.T) {
		// First node starts after header+domain+eps+method+CI+depth+leaves
		// (64) + node count u64 (8). Its child-count field sits after the
		// 48-byte node payload; the first child index follows. Pointing it
		// at node 0 breaks the child-after-parent order invariant.
		bad := append([]byte(nil), data...)
		childIdx := 64 + 8 + 48 + 4
		bad[childIdx], bad[childIdx+1], bad[childIdx+2], bad[childIdx+3] = 0, 0, 0, 0
		if _, err := ParseTreeBinary(bad); err == nil || !strings.Contains(err.Error(), "out-of-order") {
			t.Errorf("cyclic child: err = %v", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		other := codec.NewEnc(nil, codec.KindUniform).Bytes()
		if _, err := ParseTreeBinary(other); err == nil {
			t.Error("accepted a non-kd-tree container")
		}
	})
}

// TestTreeJSONRejectsBadTopology: a release whose header or topology
// is bad is rejected. Only the container loads, so the cases are planted
// in its fields.
func TestTreeJSONRejectsBadTopology(t *testing.T) {
	data, err := buildTestTree(t, Standard).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// After magic+version+kind (12), domain (32), epsilon (8), method
	// and CI (2 each): depth u32 at 56. The root node starts at 72,
	// after the leaf count and the node count; its first child index
	// follows its 48-byte payload and child count, at 124.
	for name, mangle := range map[string]func(b []byte){
		"wrong format": func(b []byte) { binary.LittleEndian.PutUint16(b[10:], uint16(codec.KindUniform)) },
		"bad depth":    func(b []byte) { binary.LittleEndian.PutUint32(b[56:], 99) },
		"shared child": func(b []byte) { binary.LittleEndian.PutUint32(b[124:], 2) },
	} {
		t.Run(name, func(t *testing.T) {
			bad := bytes.Clone(data)
			mangle(bad)
			if _, err := ParseTreeBinary(bad); err == nil {
				t.Error("accepted, want error")
			}
		})
	}
}

func TestTreeQueryBatchMatchesQuery(t *testing.T) {
	tree := buildTestTree(t, Hybrid)
	rng := rand.New(rand.NewSource(4))
	rs := make([]geom.Rect, 64)
	for i := range rs {
		x, y := rng.Float64()*9, rng.Float64()*9
		rs[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64(), MaxY: y + rng.Float64()}
	}
	got := pool.Map(rs, 0, tree.Query)
	if len(got) != len(rs) {
		t.Fatalf("got %d answers for %d queries", len(got), len(rs))
	}
	for i, r := range rs {
		if got[i] != tree.Query(r) {
			t.Fatalf("batch answer %d = %g, want %g", i, got[i], tree.Query(r))
		}
	}
}
