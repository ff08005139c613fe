package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func buildTestSharded(t *testing.T, seed int64, kx, ky int, ag bool) *Sharded {
	t.Helper()
	dom := geom.MustDomain(0, 0, 100, 80)
	plan, err := NewPlan(dom, kx, ky)
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints(seed, 8000, dom)
	var s *Sharded
	if ag {
		s, err = BuildAdaptive(pts, plan, 1, core.AGOptions{M1: 3}, Options{}, noise.NewSource(seed))
	} else {
		s, err = BuildUniform(pts, plan, 1, core.UGOptions{GridSize: 8}, Options{}, noise.NewSource(seed))
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// misaligned returns a copy of data starting one byte past an 8-byte
// boundary: no f64 section in it can be aliased, so every tile decodes
// through codec's copying branch.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

var binaryTestRects = []geom.Rect{
	geom.NewRect(0, 0, 100, 80),      // everything: every shard via TotalEstimate
	geom.NewRect(3, 3, 22, 17),       // inside the first tile
	geom.NewRect(40, 30, 60, 50),     // straddles interior tile edges
	geom.NewRect(-50, -50, 500, 500), // over-covers the domain
	geom.NewRect(200, 200, 300, 300), // fully outside
}

// TestShardedBinaryRoundTrip: eager binary round trip answers
// identically and re-encodes bit-identically, for UG and AG mosaics.
func TestShardedBinaryRoundTrip(t *testing.T) {
	for _, ag := range []bool{false, true} {
		orig := buildTestSharded(t, 71, 3, 2, ag)
		data, err := orig.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ParseShardedBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.NumShards() != 6 || loaded.TileKind() != orig.TileKind() || loaded.Epsilon() != orig.Epsilon() {
			t.Fatalf("ag=%v: metadata lost: %d shards, tile kind %v", ag, loaded.NumShards(), loaded.TileKind())
		}
		for _, r := range binaryTestRects {
			if a, b := orig.Query(r), loaded.Query(r); a != b {
				t.Errorf("ag=%v: Query(%v): %g before, %g after", ag, r, a, b)
			}
		}
		again, err := loaded.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("ag=%v: re-encoding a decoded release changed bytes", ag)
		}
	}
}

// TestLazyMatchesEager: the parse of aligned bytes (tiles aliasing the
// container) answers every query exactly like the parse of the same
// bytes misaligned (every section copied), with the same metadata.
func TestLazyMatchesEager(t *testing.T) {
	orig := buildTestSharded(t, 72, 4, 4, true)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := ParseShardedBinary(misaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	view, err := ParseShardedBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if view.NumShards() != 16 || view.Epsilon() != 1 || view.Domain() != orig.Domain() || view.TileKind() != codec.KindAdaptive {
		t.Fatalf("metadata: %d shards, eps %g", view.NumShards(), view.Epsilon())
	}
	if _, ok := view.Shard(0).(*core.AdaptiveGrid); !ok {
		t.Fatalf("tile is %T, want *core.AdaptiveGrid", view.Shard(0))
	}
	if !view.SATBacked() || !eager.SATBacked() {
		t.Errorf("SATBacked: view %v, eager %v; want both true", view.SATBacked(), eager.SATBacked())
	}
	inFirstTile := geom.NewRect(2, 2, 20, 15)
	for _, r := range append(binaryTestRects, inFirstTile) {
		if a, b := eager.Query(r), view.Query(r); a != b {
			t.Errorf("Query(%v): eager %g, view %g", r, a, b)
		}
	}
	if a, b := eager.TotalEstimate(), view.TotalEstimate(); a != b {
		t.Errorf("TotalEstimate: eager %g, view %g", a, b)
	}
	if a, b := eager.ShardAnswer(3, inFirstTile), view.ShardAnswer(3, inFirstTile); a != b {
		t.Errorf("ShardAnswer: eager %g, view %g", a, b)
	}
}

// TestLazyAppendBinaryIsVerbatim: re-encoding a release whose tiles
// alias the container reproduces the container bytes, and its JSON is
// the JSON of the copying parse, byte for byte.
func TestLazyAppendBinaryIsVerbatim(t *testing.T) {
	orig := buildTestSharded(t, 74, 2, 2, true)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := ParseShardedBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := view.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("view re-encode changed bytes")
	}
	eager, err := ParseShardedBinary(misaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	var viewJSON, eagerJSON bytes.Buffer
	if _, err := view.WriteTo(&viewJSON); err != nil {
		t.Fatal(err)
	}
	if _, err := eager.WriteTo(&eagerJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viewJSON.Bytes(), eagerJSON.Bytes()) {
		t.Fatal("view JSON differs from the copying parse's JSON")
	}
}

// TestLazyConcurrentQueries: racing queries over one release whose
// tiles alias the container agree with the copying parse. Run under
// -race in CI.
func TestLazyConcurrentQueries(t *testing.T) {
	orig := buildTestSharded(t, 75, 4, 2, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := ParseShardedBinary(misaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	view, err := ParseShardedBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range binaryTestRects {
				if a, b := eager.Query(r), view.Query(r); a != b {
					errs <- r.String()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for r := range errs {
		t.Errorf("concurrent Query(%s) diverged", r)
	}
}

// TestShardedBinaryRejectsCorrupt: corruption in the framing or in any
// payload fails at load, over aligned and misaligned bytes alike — so
// no query can ever meet a damaged tile.
func TestShardedBinaryRejectsCorrupt(t *testing.T) {
	orig := buildTestSharded(t, 76, 2, 2, true)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Field offsets in the manifest body: 12-byte header, 32-byte
	// domain, 8-byte eps, 8 bytes kx+ky, 2 bytes shard kind, 8 bytes
	// shard count, then the offset table. The 4-entry table ends at
	// byte 134; 2 bytes of padding align the blob length, and the first
	// payload follows it.
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	const payloadOff = tableOff + 4*16 + 2 + 8
	mut := func(f func(b []byte)) []byte {
		b := bytes.Clone(data)
		f(b)
		return b
	}
	setShardKind := func(k codec.Kind) []byte {
		return mut(func(b []byte) { binary.LittleEndian.PutUint16(b[12+32+8+8:], uint16(k)) })
	}
	cases := []struct {
		name string
		data []byte
		want string // a substring of the error; "" accepts any error
	}{
		{"empty", nil, ""},
		{"truncated", data[:len(data)/2], ""},
		{"trailing", append(bytes.Clone(data), 0xAB), ""},
		{"wrong kind on manifest", mut(func(b []byte) {
			binary.LittleEndian.PutUint16(b[10:], uint16(codec.KindUniform))
		}), ""},
		{"bad shard kind", mut(func(b []byte) {
			binary.LittleEndian.PutUint16(b[12+32+8+8:], 0xEE)
		}), ""},
		// Only the five release kinds can be tiles: not the zero kind,
		// not a manifest (no nesting), not the retired kind 7 and not a
		// kind this build does not know.
		{"shard kind invalid", setShardKind(codec.KindInvalid), "not an embeddable synopsis kind"},
		{"shard kind sharded", setShardKind(codec.KindSharded), "not an embeddable synopsis kind"},
		{"shard kind 7 retired", setShardKind(codec.Kind(7)), "not an embeddable synopsis kind"},
		{"shard kind 8", setShardKind(codec.Kind(8)), "not an embeddable synopsis kind"},
		{"zero epsilon", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[12+32:], 0)
		}), ""},
		{"non-contiguous offsets", mut(func(b []byte) {
			// Second table entry's offset += 1.
			off := binary.LittleEndian.Uint64(b[tableOff+16:])
			binary.LittleEndian.PutUint64(b[tableOff+16:], off+1)
		}), ""},
		{"shard payload bad magic", mut(func(b []byte) {
			b[payloadOff] ^= 0xFF
		}), ""},
		{"misaligned offsets", mut(func(b []byte) {
			// Second table entry's offset += 8, with the length shrunk so
			// the table still covers the blob.
			off := binary.LittleEndian.Uint64(b[tableOff+16:])
			binary.LittleEndian.PutUint64(b[tableOff+16:], off+8)
			n := binary.LittleEndian.Uint64(b[tableOff+24:])
			binary.LittleEndian.PutUint64(b[tableOff+24:], n-8)
		}), ""},
		{"nonzero manifest padding", mut(func(b []byte) {
			b[tableOff+4*16] = 1
		}), ""},
		// The first AG cell's sums table starts after the payload's
		// 12-byte header, 32-byte domain, eps, alpha, m1 and the
		// section length.
		{"nan payload value", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[payloadOff+12+32+8+8+4+8:], 0x7FF8000000000001)
		}), ""},
		// The manifest's final 8 bytes are the last tile's SAT total: a
		// finite value that disagrees with the cell totals.
		{"SAT mismatch", mut(func(b []byte) {
			last := b[len(b)-8:]
			binary.LittleEndian.PutUint64(last, math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(last))+1))
		}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseShardedBinary(tc.data); err == nil {
				t.Error("parse accepted it")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, err := ParseShardedBinary(misaligned(tc.data)); err == nil {
				t.Error("parse of the misaligned bytes accepted it")
			}
		})
	}
}

// TestAssembleRejectsShardedTile: a sharded release satisfies the tile
// interface but is not an embeddable kind, so manifests cannot nest.
func TestAssembleRejectsShardedTile(t *testing.T) {
	inner := buildTestSharded(t, 77, 1, 1, false)
	plan, err := NewPlan(inner.Domain(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Assemble(plan, inner.Epsilon(), []Synopsis{inner})
	if err == nil || !strings.Contains(err.Error(), "not an embeddable synopsis kind") {
		t.Fatalf("Assemble(sharded tile) = %v, want a not-embeddable error", err)
	}
}

// TestShardedBinaryMismatchedShardMetadata: a shard that parses cleanly
// but disagrees with the manifest (wrong epsilon) is a corrupt release.
func TestShardedBinaryMismatchedShardMetadata(t *testing.T) {
	orig := buildTestSharded(t, 78, 2, 1, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first shard payload starts right after the blob length (the
	// 2-entry table ends at byte 102, padded to 104); its epsilon sits
	// after its own 12-byte header + 32-byte domain.
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	payloadOff := tableOff + 2*16 + 2 + 8
	bad := bytes.Clone(data)
	epsOff := payloadOff + 12 + 32
	binary.LittleEndian.PutUint64(bad[epsOff:], binary.LittleEndian.Uint64(bad[epsOff:])+1)
	if _, err := ParseShardedBinary(bad); err == nil {
		t.Fatal("parse accepted an epsilon-mismatched shard")
	}
}

// TestShardedBinaryRejectsOverflowingOffsetTable: a crafted table whose
// offset+length wraps uint64 used to satisfy both the contiguity and
// the blob-length cross-check and then panic slicing the blob; it must
// be rejected instead.
func TestShardedBinaryRejectsOverflowingOffsetTable(t *testing.T) {
	orig := buildTestSharded(t, 79, 2, 1, false)
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	blobLen := binary.LittleEndian.Uint64(data[tableOff+2*16+2:])
	bad := bytes.Clone(data)
	// entry 0: off 0, length 2^64-8; entry 1: off 2^64-8, length
	// blobLen+8 -> end wraps back to blobLen.
	binary.LittleEndian.PutUint64(bad[tableOff+8:], ^uint64(0)-7)
	binary.LittleEndian.PutUint64(bad[tableOff+16:], ^uint64(0)-7)
	binary.LittleEndian.PutUint64(bad[tableOff+24:], blobLen+8)
	if _, err := ParseShardedBinary(bad); err == nil {
		t.Fatal("parse accepted an overflowing offset table")
	}
}

// TestShardedManifestFramingErrors: a manifest cut short or followed by
// stray bytes is named `shard: parse synopsis: …`, as its opening
// (codec.OpenHead) names it.
func TestShardedManifestFramingErrors(t *testing.T) {
	s := buildTestSharded(t, 80, 2, 2, false)
	bin, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The manifest body as in TestShardedBinaryRejectsCorrupt: the tile
	// counts at byte 52, the shard kind at 60, the shard count at 62
	// and the offset table at 70.
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"truncated manifest", bin[:len(bin)-8],
			"shard: parse synopsis: codec: section length 4992 exceeds the 4984 bytes left (offset 144)"},
		{"cut in the tile counts", bin[:tableOff-12],
			"shard: parse synopsis: codec: truncated: need 4 bytes, have 2 (offset 56)"},
		{"cut in the shard count", bin[:tableOff-3],
			"shard: parse synopsis: codec: truncated: need 8 bytes, have 5 (offset 62)"},
		{"offset table cut short", bin[:tableOff+16+3],
			"shard: parse synopsis: codec: section length 4 exceeds the 19 bytes left (offset 70)"},
		{"trailing byte", append(bytes.Clone(bin), 0),
			"shard: parse synopsis: codec: 1 trailing bytes after container body"},
	}
	for _, tc := range cases {
		_, err := ParseShardedBinary(tc.data)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
