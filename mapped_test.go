package dpgrid

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/dpgrid/dpgrid/internal/mmapfile"
)

// mappedTestRects is the query battery shared by the mapped-vs-read
// equivalence checks.
var mappedTestRects = []Rect{
	NewRect(0, 0, 20, 20),
	NewRect(1.5, 2.5, 18, 19),
	NewRect(9, 9, 11, 11),
	NewRect(-5, -5, 50, 50),
	NewRect(3, 3, 3, 3),
	NewRect(0.1, 17.3, 4.4, 19.9),
}

// writeMappedTestFiles writes every valid synopsis under a temp dir,
// returning name -> path.
func writeMappedTestFiles(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := make(map[string]string)
	for name, s := range validSynopses(t) {
		p := filepath.Join(dir, name+".dpgrid")
		if err := WriteSynopsisFile(p, s); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}
	return paths
}

// mmapAvailable reports whether this platform/build actually maps files
// (false under the dpgrid_nommap tag or on unsupported platforms), so
// the MappedBytes assertions below hold in both build modes.
func mmapAvailable(t *testing.T, path string) bool {
	t.Helper()
	f, err := mmapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return f.Mapped()
}

// TestMapSynopsisFileEquivalence: for every kind, a mapped load and a
// serving load of the file read onto the heap answer the query battery
// bit-identically to ReadSynopsisFile.
func TestMapSynopsisFileEquivalence(t *testing.T) {
	for name, path := range writeMappedTestFiles(t) {
		mapped, err := MapSynopsisFile(path)
		if err != nil {
			t.Fatalf("%s: MapSynopsisFile: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := LoadSynopsis(data)
		if err != nil {
			t.Fatalf("%s: LoadSynopsis: %v", name, err)
		}
		plain, err := ReadSynopsisFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range mappedTestRects {
			a, h, b := mapped.Query(r), heap.Query(r), plain.Query(r)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: Query(%v): mapped %v, read %v", name, r, a, b)
			}
			if math.Float64bits(h) != math.Float64bits(b) {
				t.Errorf("%s: Query(%v): heap bytes %v, read %v", name, r, h, b)
			}
		}
	}
}

// TestMappedBytesAccounting: mapped loads, whose decoded tables alias
// the file, report the file size (when the build actually maps), and 0
// once closed.
func TestMappedBytesAccounting(t *testing.T) {
	for name, path := range writeMappedTestFiles(t) {
		mapped, err := MapSynopsisFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if mmapAvailable(t, path) {
			want = st.Size()
		}
		if got := mapped.MappedBytes(); got != want {
			t.Errorf("%s: MappedBytes = %d, want %d", name, got, want)
		}
		mapped.Close()
		if got := mapped.MappedBytes(); got != 0 {
			t.Errorf("%s: MappedBytes after Close = %d, want 0", name, got)
		}
	}
}

// TestMappedSATBacked: mapped UG/AG releases and all-SAT sharded mosaics
// report the fast path.
func TestMappedSATBacked(t *testing.T) {
	binPaths := writeMappedTestFiles(t)
	for _, name := range []string{"ug", "ag", "sharded"} {
		mapped, err := MapSynopsisFile(binPaths[name])
		if err != nil {
			t.Fatal(err)
		}
		if !mapped.SATBacked() {
			t.Errorf("%s: mapped binary load not SATBacked", name)
		}
	}
}

// TestMappedSynopsisClose: after Close, the error-returning entry point
// reports ErrSynopsisClosed and the errorless Query panics with an
// explanatory message instead of faulting on unmapped memory. Close is
// idempotent.
func TestMappedSynopsisClose(t *testing.T) {
	path := writeMappedTestFiles(t)["ug"]
	mapped, err := MapSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := mappedTestRects[0]
	if _, _, err := mapped.QueryStatsCtx(context.Background(), r); err != nil {
		t.Fatalf("QueryStatsCtx before Close: %v", err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := mapped.QueryStatsCtx(context.Background(), r); err != ErrSynopsisClosed {
		t.Fatalf("QueryStatsCtx after Close: err = %v, want ErrSynopsisClosed", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Query after Close did not panic")
		}
	}()
	mapped.Query(r)
}

// TestMappedShardedConcurrentMaterialization: concurrent queries
// against a mapped sharded release must be clean under -race, and every
// answer must match a fresh single-threaded heap load.
func TestMappedShardedConcurrentMaterialization(t *testing.T) {
	path := writeMappedTestFiles(t)["sharded"]
	mapped, err := MapSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mapped.Unwrap().(*Sharded); !ok {
		t.Fatalf("mapped sharded inner is %T, want *Sharded", mapped.Unwrap())
	}
	plain, err := ReadSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(mappedTestRects))
	for i, r := range mappedTestRects {
		want[i] = plain.Query(r)
	}

	workers := runtime.GOMAXPROCS(0) + 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				for i, r := range mappedTestRects {
					if got := mapped.Query(r); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("worker %d: Query(%v) = %v, want %v", w, r, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMapSynopsisFileRejectsCorrupt: truncated or damaged files fail at
// load — before any query can touch a partially mapped structure — and
// a missing file surfaces the open error.
func TestMapSynopsisFileRejectsCorrupt(t *testing.T) {
	for name, path := range writeMappedTestFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// One byte past half: exactly half of the 3x3 UG is its body
		// without the optional SAT trailer, a valid container.
		for _, cut := range []int{len(data) - 1, len(data)/2 + 1, 9} {
			p := filepath.Join(t.TempDir(), "trunc.dpgrid")
			if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if syn, err := MapSynopsisFile(p); err == nil {
				t.Errorf("%s truncated to %d bytes: MapSynopsisFile accepted %T", name, cut, syn.Unwrap())
			}
		}
	}
	if _, err := MapSynopsisFile(filepath.Join(t.TempDir(), "absent.dpgrid")); err == nil {
		t.Error("MapSynopsisFile accepted a missing file")
	}
}

// TestServingLoadRejectsCorruptManifest: a sharded manifest damaged in
// its offset table or inside any tile payload is rejected at load by
// every loader — the reader, the serving loader over heap bytes or a
// read file, and the mapped loader — before any query runs.
func TestServingLoadRejectsCorruptManifest(t *testing.T) {
	data := validBinarySynopsisFiles(t)["sharded"] // 2x1 AG mosaic
	// Manifest body: 12-byte header, 32-byte domain, 8-byte eps, 8 bytes
	// kx+ky, 2 bytes shard kind, 8 bytes shard count, then the offset
	// table; the first payload follows the 2-entry table, 2 bytes of
	// alignment padding and the blob length.
	const tableOff = 12 + 32 + 8 + 8 + 2 + 8
	const payloadOff = tableOff + 2*16 + 2 + 8
	mut := func(f func(b []byte)) []byte {
		b := bytes.Clone(data)
		f(b)
		return b
	}
	u64 := binary.LittleEndian.Uint64
	put := binary.LittleEndian.PutUint64
	cases := []struct {
		name string
		data []byte
	}{
		{"non-contiguous offsets", mut(func(b []byte) { put(b[tableOff+16:], u64(b[tableOff+16:])+1) })},
		{"overflowing offsets", mut(func(b []byte) {
			// entry 0: length 2^64-8; entry 1: offset 2^64-8, length
			// blobLen+8 -> the end wraps back to blobLen.
			blobLen := u64(b[tableOff+2*16+2:])
			put(b[tableOff+8:], ^uint64(0)-7)
			put(b[tableOff+16:], ^uint64(0)-7)
			put(b[tableOff+24:], blobLen+8)
		})},
		{"payload bad magic", mut(func(b []byte) { b[payloadOff] ^= 0xFF })},
		// The first cell's sums table follows the payload's header,
		// domain, eps, alpha, m1 and the section length.
		{"nan payload value", mut(func(b []byte) { put(b[payloadOff+12+32+8+8+4+8:], math.Float64bits(math.NaN())) })},
		{"payload epsilon mismatch", mut(func(b []byte) { put(b[payloadOff+12+32:], u64(b[payloadOff+12+32:])+1) })},
		// The final 8 bytes are the last tile's SAT total.
		{"SAT mismatch", mut(func(b []byte) {
			last := b[len(b)-8:]
			put(last, math.Float64bits(math.Float64frombits(u64(last))+1))
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.dpgrid")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSynopsis(bytes.NewReader(tc.data)); err == nil {
				t.Error("ReadSynopsis accepted it")
			}
			if _, err := LoadSynopsis(tc.data); err == nil {
				t.Error("LoadSynopsis accepted it")
			}
			if _, err := LoadSynopsisFile(path); err == nil {
				t.Error("LoadSynopsisFile accepted it")
			}
			if m, err := MapSynopsisFile(path); err == nil {
				m.Close()
				t.Error("MapSynopsisFile accepted it")
			}
		})
	}
}

// TestLoadSynopsisAliasesSections: on a little-endian host, loading an
// aligned version-2 container costs descriptors, not a copy of its
// float sections. A 512x512 UG carries 4 MiB of counts and summed-area
// table; its load must allocate under 64 KiB, which fails the moment
// the codec copies a section instead of aliasing it.
func TestLoadSynopsisAliasesSections(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("big-endian host: sections decode by copying")
	}
	pts, dom := batchTestData(t, 1000, 3)
	ug, err := BuildUniformGrid(pts, dom, 1, UGOptions{GridSize: 512}, NewNoiseSource(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, ug); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The smallest of a few loads, so that a stray allocation elsewhere
	// in the process cannot fail the test.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		syn, err := LoadSynopsis(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if got, want := syn.Query(dom.Rect), ug.Query(dom.Rect); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("loaded answer %v, built %v", got, want)
		}
	}
	if least >= 64<<10 {
		t.Fatalf("loading a %d-byte UG allocated %d bytes; want < 64 KiB (are f64 sections copied?)", len(data), least)
	}
}
