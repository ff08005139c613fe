package dpgrid

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
)

func TestWriteReadSynopsisUG(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	pts := examplePoints(51, 10000, dom)
	orig, err := BuildUniformGrid(pts, dom, 1, UGOptions{}, NewNoiseSource(51))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ug, ok := loaded.(*UniformGrid)
	if !ok {
		t.Fatalf("loaded type %T, want *UniformGrid", loaded)
	}
	r := NewRect(10, 10, 40, 40)
	if a, b := orig.Query(r), ug.Query(r); a != b {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

func TestWriteReadSynopsisAG(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	pts := examplePoints(52, 10000, dom)
	orig, err := BuildAdaptiveGrid(pts, dom, 1, AGOptions{}, NewNoiseSource(52))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.(*AdaptiveGrid); !ok {
		t.Fatalf("loaded type %T, want *AdaptiveGrid", loaded)
	}
	r := NewRect(5.5, 6.6, 44.4, 43.3)
	a, b := orig.Query(r), loaded.Query(r)
	if diff := a - b; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

// stubSynopsis implements Synopsis but none of the serialization
// interfaces — the shape of a caller-provided synopsis that is none of
// dpgrid's kinds.
type stubSynopsis struct{}

func (stubSynopsis) Query(Rect) float64 { return 0 }

func TestWriteSynopsisUnsupportedType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, stubSynopsis{}); err == nil {
		t.Error("binary serialization of an unregistered synopsis should fail")
	}
	if err := WriteSynopsisFormat(&buf, stubSynopsis{}, FormatJSON); err == nil {
		t.Error("JSON serialization of an unregistered synopsis should fail")
	}
	if k := SynopsisKind(stubSynopsis{}); k != "" {
		t.Errorf("SynopsisKind of an unregistered synopsis = %q, want \"\"", k)
	}
}

func TestReadSynopsisGarbage(t *testing.T) {
	if _, err := ReadSynopsis(strings.NewReader("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSynopsis(strings.NewReader(`{"format":"dpgrid/who-knows","version":1}`)); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestWriteReadSynopsisSharded(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	plan, err := NewShardPlan(dom, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(53, 10000, dom)
	orig, err := BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{}, ShardOptions{}, NewNoiseSource(53))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := loaded.(*Sharded)
	if !ok {
		t.Fatalf("loaded type %T, want *Sharded", loaded)
	}
	if sh.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sh.NumShards())
	}
	r := NewRect(5.5, 6.6, 44.4, 43.3)
	a, b := orig.Query(r), sh.Query(r)
	if diff := a - b; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("round trip changed answer: %g vs %g", a, b)
	}
}

func TestShardedSynopsisFileRoundTrip(t *testing.T) {
	dom, _ := NewDomain(0, 0, 40, 40)
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(54, 5000, dom)
	orig, err := BuildShardedUniformGrid(pts, plan, 1, UGOptions{}, ShardOptions{}, NewNoiseSource(54))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mosaic.dpgrid")
	if err := WriteSynopsisFile(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsisFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRect(3, 3, 33, 17)
	if a, b := orig.Query(r), loaded.Query(r); a != b {
		t.Errorf("file round trip changed answer: %g vs %g", a, b)
	}
}

// validSynopses builds one small release of each kind for the
// round-trip tables, the corrupt-file table, and the fuzz seed corpus.
func validSynopses(t interface{ Fatal(...any) }) map[string]Synopsis {
	dom, err := NewDomain(0, 0, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := BuildUniformGrid(nil, dom, 1, UGOptions{GridSize: 3}, NewNoiseSource(1))
	if err != nil {
		t.Fatal(err)
	}
	ag, err := BuildAdaptiveGrid(nil, dom, 1, AGOptions{M1: 2}, NewNoiseSource(2))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildShardedAdaptiveGrid(nil, plan, 1, AGOptions{M1: 2}, ShardOptions{}, NewNoiseSource(3))
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(4, 500, dom)
	hier, err := BuildHierarchy(pts, dom, 1, HierarchyOptions{GridSize: 4, Branching: 2, Depth: 2}, NewNoiseSource(4))
	if err != nil {
		t.Fatal(err)
	}
	kd, err := BuildKDTree(pts, dom, 1, KDTreeOptions{Method: KDHybrid, Depth: 5}, NewNoiseSource(5))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPrivlet(pts, dom, 1, PrivletOptions{GridSize: 3}, NewNoiseSource(6))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Synopsis{
		"ug": ug, "ag": ag, "sharded": sh,
		"hierarchy": hier, "kdtree": kd, "privlet": pl,
	}
}

// validJSONDumps serializes one release of each kind as a JSON dump.
func validJSONDumps(t interface{ Fatal(...any) }) map[string][]byte {
	out := make(map[string][]byte)
	for name, s := range validSynopses(t) {
		var buf bytes.Buffer
		if err := WriteSynopsisFormat(&buf, s, FormatJSON); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// validBinarySynopsisFiles serializes one release of each kind as a
// dpgridv2 container.
func validBinarySynopsisFiles(t interface{ Fatal(...any) }) map[string][]byte {
	out := make(map[string][]byte)
	for name, s := range validSynopses(t) {
		var buf bytes.Buffer
		if err := WriteSynopsis(&buf, s); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// satlessBinarySynopsisFiles encodes the UG, AG and sharded releases of
// validSynopses without their summed-area trailers, as files written
// before the trailer existed: loaders must rebuild the prefix tables
// from the cell values. The encoder always writes the trailer, so the
// manifest is reassembled around the stripped tile payloads.
func satlessBinarySynopsisFiles(t testing.TB) map[string][]byte {
	valid := validBinarySynopsisFiles(t)
	strip := func(data []byte) []byte { return data[:len(data)-goldenSATTrailerLen(t, data)] }
	sh := validSynopses(t)["sharded"].(*Sharded)
	var blob []byte
	var offsets []uint64
	for i := 0; i < sh.NumShards(); i++ {
		var buf bytes.Buffer
		if err := WriteSynopsis(&buf, sh.Shard(i)); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, uint64(len(blob)))
		blob = append(blob, strip(buf.Bytes())...)
		offsets = append(offsets, uint64(len(blob))-offsets[len(offsets)-1])
	}
	kx, ky := sh.Plan().Dims()
	e := codec.NewEnc(nil, codec.KindSharded)
	e.Domain(sh.Domain())
	e.F64(sh.Epsilon())
	e.U32(uint32(kx))
	e.U32(uint32(ky))
	e.U16(uint16(codec.KindAdaptive))
	e.U64(uint64(sh.NumShards()))
	for _, v := range offsets {
		e.U64(v)
	}
	// A stripped AG body ends 8-byte aligned, so the tiles need no
	// padding between them; only the blob length does.
	e.Align()
	e.U64(uint64(len(blob)))
	e.Raw(blob)
	return map[string][]byte{"ug": strip(valid["ug"]), "ag": strip(valid["ag"]), "sharded": e.Bytes()}
}

// overflowReleases are JSON releases whose sizes (2^32) would wrap a
// 64-bit square to 0: an AG m1, an AG m2, and UG dimensions. JSON does
// not load, so they are rejected before any size is read.
var overflowReleases = [][]byte{
	[]byte(`{"format":"dpgrid/adaptive-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"alpha":0.5,"m1":4294967296,"cells":[]}`),
	[]byte(`{"format":"dpgrid/adaptive-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"alpha":0.5,"m1":1,"cells":[{"m2":4294967296,"leaves":[]}]}`),
	[]byte(`{"format":"dpgrid/uniform-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"m":1,"mx":4294967296,"my":4294967296,"counts":[]}`),
}

// TestReadSynopsisRejectsCorrupt: corrupt or truncated synopsis files
// must return errors through ReadSynopsis — never panic, never load.
// The JSON rows, hand-corrupted or truncated dumps, are rejected as
// JSON; the binary rows reach the container decoders.
func TestReadSynopsisRejectsCorrupt(t *testing.T) {
	valid := validJSONDumps(t)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("junk")},
		{"empty object", []byte(`{}`)},
		{"unknown format", []byte(`{"format":"dpgrid/who-knows","version":1}`)},
		{"ug truncated", valid["ug"][:len(valid["ug"])/2]},
		{"ag truncated", valid["ag"][:len(valid["ag"])*2/3]},
		{"sharded truncated", valid["sharded"][:len(valid["sharded"])/2]},
		{"hierarchy truncated", valid["hierarchy"][:len(valid["hierarchy"])/2]},
		{"kdtree truncated", valid["kdtree"][:len(valid["kdtree"])/2]},
		{"privlet truncated", valid["privlet"][:len(valid["privlet"])/2]},
		{"hierarchy indivisible shape", []byte(`{"format":"dpgrid/hierarchy","version":1,"domain":[0,0,1,1],"epsilon":1,"grid_size":3,"branching":2,"depth":2,"sums":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`)},
		{"privlet oversized grid", []byte(`{"format":"dpgrid/privlet","version":1,"domain":[0,0,1,1],"epsilon":1,"grid_size":99999,"sums":[0]}`)},
		{"kdtree no nodes", []byte(`{"format":"dpgrid/kdtree","version":1,"domain":[0,0,1,1],"epsilon":1,"method":0,"depth":1,"nodes":[],"estimates":[]}`)},
		{"ug bad version", []byte(`{"format":"dpgrid/uniform-grid","version":99,"domain":[0,0,1,1],"epsilon":1,"m":1,"counts":[0]}`)},
		{"ug counts mismatch", []byte(`{"format":"dpgrid/uniform-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"m":2,"counts":[0,0,0]}`)},
		{"ug non-finite count", []byte(`{"format":"dpgrid/uniform-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"m":1,"counts":[1e999]}`)},
		{"ug bad domain", []byte(`{"format":"dpgrid/uniform-grid","version":1,"domain":[5,0,0,1],"epsilon":1,"m":1,"counts":[0]}`)},
		{"ug bad epsilon", []byte(`{"format":"dpgrid/uniform-grid","version":1,"domain":[0,0,1,1],"epsilon":0,"m":1,"counts":[0]}`)},
		{"ag cells mismatch", []byte(`{"format":"dpgrid/adaptive-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"alpha":0.5,"m1":2,"cells":[{"m2":1,"leaves":[0]}]}`)},
		{"ag leaves mismatch", []byte(`{"format":"dpgrid/adaptive-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"alpha":0.5,"m1":1,"cells":[{"m2":2,"leaves":[0]}]}`)},
		{"ag bad alpha", []byte(`{"format":"dpgrid/adaptive-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"alpha":1.5,"m1":1,"cells":[{"m2":1,"leaves":[0]}]}`)},
		// Sizes whose squares wrap a 64-bit product to 0.
		{"ag m1 wraps", overflowReleases[0]},
		{"ag m2 wraps", overflowReleases[1]},
		{"ug dims wrap", overflowReleases[2]},
		{"sharded payload mismatch", []byte(`{"format":"dpgrid/sharded","version":1,"domain":[0,0,1,1],"epsilon":1,"kx":2,"ky":1,"shard_format":"dpgrid/uniform-grid","shards":[]}`)},
		{"sharded bad payload", []byte(`{"format":"dpgrid/sharded","version":1,"domain":[0,0,1,1],"epsilon":1,"kx":1,"ky":1,"shard_format":"dpgrid/uniform-grid","shards":[{"x":1}]}`)},
	}
	// Binary-container corruption goes through the same entry point.
	validBin := validBinarySynopsisFiles(t)
	corruptBin := map[string][]byte{"binary bare magic": []byte("dpgridv2")}
	for name, data := range validBin {
		// One byte past half: exactly half of the 3x3 UG container is
		// its body without the optional SAT trailer, a valid container.
		corruptBin["binary "+name+" truncated"] = data[:len(data)/2+1]
		corruptBin["binary "+name+" trailing bytes"] = append(bytes.Clone(data), 0)
	}
	for name, data := range corruptBin {
		cases = append(cases, struct {
			name string
			data []byte
		}{name, data})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSynopsis(bytes.NewReader(tc.data)); err == nil {
				t.Errorf("corrupt input accepted: %.80s", tc.data)
			}
			syn, err := LoadSynopsis(tc.data)
			if err == nil {
				t.Errorf("corrupt input accepted by the serving loader: %.80s", tc.data)
			}
			if syn != nil {
				t.Errorf("the serving loader returned a non-nil %T with its error", syn)
			}
		})
	}
	// Sanity: the valid containers all load.
	for name, data := range validBin {
		if _, err := ReadSynopsis(bytes.NewReader(data)); err != nil {
			t.Errorf("valid binary %s file rejected: %v", name, err)
		}
	}
}

// TestFuzzSeedsReachDecoders: every committed FuzzReadSynopsis seed is
// a version-2 container that NewDec opens, so each one reaches the
// kind decoder and the guard it was committed to exercise instead of
// stopping at the container's version check.
func TestFuzzSeedsReachDecoders(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadSynopsis", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed FuzzReadSynopsis seeds")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the header line, then []byte("...") holding
		// the input as a Go string literal.
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lit, "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file (%v)", path, err)
		}
		if _, _, err := codec.NewDec([]byte(data)); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

// FuzzReadSynopsis: the public deserialization entry points —
// ReadSynopsis and LoadSynopsis, the loader every served release goes
// through — must never panic and must either return a queryable
// synopsis or an error, no matter the bytes; they must agree on
// acceptance and answer bit-identically. The seed corpus covers every
// kind's container and JSON dump (which both must reject), SAT-less
// containers (the prefix-rebuild path), plus truncated and bit-flipped
// variants of the dpgridv2 containers and hand-corrupted JSON. The
// version-1 goldens under testdata/v1, and each of them relabelled
// version 2 (unaligned sections under an aligned header), are rejection
// seeds. The committed corpus under testdata/fuzz holds more version-1
// containers and version-2 UG, AG and sharded ones, one with nonzero
// padding.
func FuzzReadSynopsis(f *testing.F) {
	valid := validJSONDumps(f)
	for _, data := range valid {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	binaries := validBinarySynopsisFiles(f)
	for name, data := range satlessBinarySynopsisFiles(f) {
		binaries["satless "+name] = data
	}
	for _, data := range binaries {
		f.Add(data)
		f.Add(data[:len(data)/3])
		f.Add(data[:len(data)-1])
		// Bit flips in the header, the dimension fields, and the
		// count/offset sections.
		for _, off := range []int{9, 13, 45, len(data) / 2, len(data) - 9} {
			flipped := bytes.Clone(data)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte(`{"format":"dpgrid/sharded","version":1}`))
	f.Add([]byte(`{"format":"dpgrid/sharded","version":1,"domain":[0,0,1,1],"epsilon":1,"kx":1,"ky":1,"shard_format":"dpgrid/uniform-grid","shards":[{"format":"dpgrid/uniform-grid","version":1,"domain":[0,0,1,1],"epsilon":1,"m":1,"counts":[3]}]}`))
	for _, data := range overflowReleases {
		f.Add(data)
	}
	f.Add([]byte(`not json at all`))
	f.Add([]byte("dpgridv2"))
	for _, data := range version1Goldens(f) {
		f.Add(data)
		relabelled := bytes.Clone(data)
		relabelled[len(codec.Magic)] = codec.Version
		f.Add(relabelled)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		syn, err := ReadSynopsis(bytes.NewReader(data))
		served, servedErr := LoadSynopsis(data)
		if (err == nil) != (servedErr == nil) {
			t.Fatalf("ReadSynopsis err %v, LoadSynopsis err %v", err, servedErr)
		}
		if err != nil {
			return
		}
		full := NewRect(-1e9, -1e9, 1e9, 1e9)
		got := syn.Query(full)
		if got != got {
			t.Fatalf("parsed synopsis produced NaN answer")
		}
		if servedGot := served.Query(full); math.Float64bits(servedGot) != math.Float64bits(got) {
			t.Fatalf("served answer %g != read answer %g", servedGot, got)
		}
	})
}

// TestJSONDumpsDoNotLoad: every JSON dump — the committed golden of
// each kind and a hand-written sharded manifest — is rejected by every
// loader with the one error that says what it is.
func TestJSONDumpsDoNotLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(goldenKinds)+1 {
		t.Fatalf("found %d JSON dumps under testdata, want %d: %v", len(paths), len(goldenKinds)+1, paths)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loaders := map[string]func() (Synopsis, error){
			"ReadSynopsis": func() (Synopsis, error) { return ReadSynopsis(bytes.NewReader(data)) },
			"LoadSynopsis": func() (Synopsis, error) { return LoadSynopsis(data) },
			"LoadSynopsis, indented": func() (Synopsis, error) {
				return LoadSynopsis(append([]byte(" \n\t"), data...))
			},
			"LoadSynopsisFile": func() (Synopsis, error) { return LoadSynopsisFile(path) },
			"MapSynopsisFile": func() (Synopsis, error) {
				m, err := MapSynopsisFile(path)
				if err != nil {
					return nil, err
				}
				return m, nil
			},
		}
		for name, load := range loaders {
			if syn, err := load(); !errors.Is(err, errJSONDump) {
				t.Errorf("%s: %s = %T, %v; want %q", path, name, syn, err, errJSONDump)
			}
		}
	}
}

// TestWriteReadSynopsisBinary: every kind round-trips through
// WriteSynopsis/ReadSynopsis bit-identically — the re-encoded
// container equals the original byte for byte.
func TestWriteReadSynopsisBinary(t *testing.T) {
	for name, s := range validSynopses(t) {
		var buf bytes.Buffer
		if err := WriteSynopsis(&buf, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := bytes.Clone(buf.Bytes())
		loaded, err := ReadSynopsis(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if err := WriteSynopsis(&again, loaded); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(data, again.Bytes()) {
			t.Errorf("%s: binary round trip changed bytes (%d -> %d)", name, len(data), again.Len())
		}
		r := NewRect(2.5, 3.5, 17, 16)
		a, b := s.Query(r), loaded.Query(r)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: round trip changed answer: %g vs %g", name, a, b)
		}
	}
}

// TestReadSynopsisLazySharded: the serving loader — and
// ReadSynopsisFileLazy, its deprecated name — decodes a binary manifest
// into a *Sharded whose tiles alias the bytes, which re-encodes to the
// same bytes and writes the built release's JSON dump; every other kind
// decodes to its ordinary type too.
func TestReadSynopsisLazySharded(t *testing.T) {
	data := validBinarySynopsisFiles(t)["sharded"]
	path := filepath.Join(t.TempDir(), "sharded.dpgrid")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadSynopsisFileLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fromFile.(*Sharded); !ok {
		t.Fatalf("ReadSynopsisFileLazy returned %T, want *Sharded", fromFile)
	}
	loaded, err := LoadSynopsis(data)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := loaded.(*Sharded)
	if !ok {
		t.Fatalf("serving load returned %T, want *Sharded", loaded)
	}
	if !sh.SATBacked() {
		t.Error("served sharded release not SATBacked")
	}
	var bin bytes.Buffer
	if err := WriteSynopsis(&bin, sh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin.Bytes(), data) {
		t.Error("served release re-encode changed bytes")
	}
	var asJSON bytes.Buffer
	if err := WriteSynopsisFormat(&asJSON, sh, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asJSON.Bytes(), validJSONDumps(t)["sharded"]) {
		t.Error("served release's JSON dump differs from the built release's")
	}
	hier := validBinarySynopsisFiles(t)["hierarchy"]
	loaded, err = LoadSynopsis(hier)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.(*Hierarchy); !ok {
		t.Fatalf("serving load of a hierarchy file returned %T", loaded)
	}
}

// TestLoadSynopsisSATLessFallback: containers without a summed-area
// trailer load with rebuilt prefix tables, report themselves as not
// SAT-backed, and answer as ReadSynopsis does.
func TestLoadSynopsisSATLessFallback(t *testing.T) {
	for name, data := range satlessBinarySynopsisFiles(t) {
		read, err := ReadSynopsis(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadSynopsis: %v", name, err)
		}
		served, err := LoadSynopsis(data)
		if err != nil {
			t.Fatalf("%s: LoadSynopsis: %v", name, err)
		}
		if sb, ok := served.(interface{ SATBacked() bool }); !ok || sb.SATBacked() {
			t.Errorf("%s: SAT-less load of %T reported SAT-backed (or cannot say)", name, served)
		}
		for _, r := range mappedTestRects {
			if a, b := served.Query(r), read.Query(r); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: Query(%v): served %v, read %v", name, r, a, b)
			}
		}
	}
}

// TestServedSynopsisJSONMatchesRead: a release loaded for serving —
// its tables aliasing heap or mapped bytes — writes the same JSON as
// ReadSynopsisFile's release of the same file, byte for byte.
func TestServedSynopsisJSONMatchesRead(t *testing.T) {
	paths := writeMappedTestFiles(t)
	for _, name := range []string{"ug", "ag", "sharded"} {
		read, err := ReadSynopsisFile(paths[name])
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := WriteSynopsisFormat(&want, read, FormatJSON); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSynopsisFile(paths[name])
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := MapSynopsisFile(paths[name])
		if err != nil {
			t.Fatal(err)
		}
		for loader, syn := range map[string]Synopsis{"LoadSynopsisFile": loaded, "MapSynopsisFile": mapped.Unwrap()} {
			var got bytes.Buffer
			if err := WriteSynopsisFormat(&got, syn, FormatJSON); err != nil {
				t.Errorf("%s via %s: %v", name, loader, err)
				continue
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s via %s: JSON differs from ReadSynopsisFile's", name, loader)
			}
		}
		mapped.Close()
	}
}

// TestBinaryManifestSmallerThanJSON: at matched cell counts (the same
// release encoded both ways) the binary manifest must be substantially
// smaller.
func TestBinaryManifestSmallerThanJSON(t *testing.T) {
	dom, _ := NewDomain(0, 0, 50, 50)
	plan, err := NewShardPlan(dom, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts := examplePoints(55, 20000, dom)
	sh, err := BuildShardedAdaptiveGrid(pts, plan, 1, AGOptions{M1: 4}, ShardOptions{}, NewNoiseSource(55))
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, binBuf bytes.Buffer
	if err := WriteSynopsisFormat(&jsonBuf, sh, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := WriteSynopsis(&binBuf, sh); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= jsonBuf.Len() {
		t.Fatalf("binary manifest %d bytes >= JSON %d bytes", binBuf.Len(), jsonBuf.Len())
	}
	t.Logf("sharded manifest: JSON %d bytes, binary %d bytes (%.1fx smaller)",
		jsonBuf.Len(), binBuf.Len(), float64(jsonBuf.Len())/float64(binBuf.Len()))
}

// update regenerates the golden files under testdata; run
// `go test -run TestGoldenFiles -update .` after an intentional format
// change and commit the result.
var update = flag.Bool("update", false, "rewrite golden synopsis files")

// goldenKinds names the committed golden files, testdata/golden.<kind>.*.
var goldenKinds = []string{"ug", "ag", "sharded", "hierarchy", "kdtree", "privlet"}

// goldenRects are the queries the golden files are checked against.
var goldenRects = []Rect{
	NewRect(0, 0, 20, 20),
	NewRect(1.5, 2.5, 18, 19),
	NewRect(9, 9, 11, 11),
}

// TestGoldenFiles pins the on-disk formats: the committed containers
// must load and re-encode bit-identically, and every one of them must
// write exactly the committed JSON dump of its kind, which pins the
// JSON encoder. A format change that breaks files already in the field
// fails here first.
func TestGoldenFiles(t *testing.T) {
	if *update {
		for name, s := range validSynopses(t) {
			if err := WriteSynopsisFileFormat(filepath.Join("testdata", "golden."+name+".json"), s, FormatJSON); err != nil {
				t.Fatal(err)
			}
			if err := WriteSynopsisFile(filepath.Join("testdata", "golden."+name+".dpgrid"), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range goldenKinds {
		binPath := filepath.Join("testdata", "golden."+name+".dpgrid")
		golden, err := os.ReadFile(binPath)
		if err != nil {
			t.Fatal(err)
		}
		goldenJSON, err := os.ReadFile(filepath.Join("testdata", "golden."+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := LoadSynopsis(golden)
		if err != nil {
			t.Fatalf("%s: %v (run `go test -run TestGoldenFiles -update .` if the format changed intentionally)", binPath, err)
		}
		var js bytes.Buffer
		if err := WriteSynopsisFormat(&js, fromBin, FormatJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js.Bytes(), goldenJSON) {
			t.Errorf("%s: its JSON dump differs from golden.%s.json", binPath, name)
		}
		var again bytes.Buffer
		if err := WriteSynopsis(&again, fromBin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(golden, again.Bytes()) {
			t.Errorf("%s: re-encoding the golden binary file changed bytes", name)
		}
	}
}

// errVersion1 is the one error every loader gives a version-1
// container.
const errVersion1 = "dpgrid: codec: container version 1 no longer loads; convert it with a dpgrid that still reads it: dpgrid -load old.dpgrid -save new.dpgrid"

// version1Goldens returns the version-1 containers under testdata/v1,
// committed before f64 sections were aligned, keyed by path.
func version1Goldens(t interface{ Fatal(...any) }) map[string][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "v1", "*.dpgrid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(goldenKinds) {
		t.Fatal(fmt.Sprintf("found %d version-1 goldens, want %d: %v", len(paths), len(goldenKinds), paths))
	}
	out := make(map[string][]byte, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = data
	}
	return out
}

// TestGoldenFilesVersion1: no loader reads a version-1 container any
// more. Each of the committed ones gets the one error that names the
// conversion, from ReadSynopsis, LoadSynopsis and MapSynopsisFile.
func TestGoldenFilesVersion1(t *testing.T) {
	for path, data := range version1Goldens(t) {
		_, readErr := ReadSynopsis(bytes.NewReader(data))
		syn, loadErr := LoadSynopsis(data)
		mapped, mapErr := MapSynopsisFile(path)
		for name, err := range map[string]error{"ReadSynopsis": readErr, "LoadSynopsis": loadErr, "MapSynopsisFile": mapErr} {
			if err == nil || err.Error() != errVersion1 {
				t.Errorf("%s(%s): err = %v, want %q", name, path, err, errVersion1)
			}
		}
		if syn != nil || mapped != nil {
			t.Errorf("%s: a loader returned a synopsis with its error", path)
		}
	}
}

// TestGoldenQueryNaNRect: a rect with NaN bounds answers NaN on every
// kind, with no panic, however the caller got past its own validation.
func TestGoldenQueryNaNRect(t *testing.T) {
	nan := math.NaN()
	r := Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}
	for _, name := range goldenKinds {
		s, err := ReadSynopsisFile(filepath.Join("testdata", "golden."+name+".dpgrid"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.Query(r); !math.IsNaN(got) {
			t.Errorf("%s: Query(NaN rect) = %g, want NaN", name, got)
		}
	}
}

// TestReadSynopsisBufferHasNoSlack: ReadSynopsis decodes from a buffer
// with cap == len, since a binary synopsis retains the buffer and
// io.ReadAll's growth slack would live as long as the synopsis.
func TestReadSynopsisBufferHasNoSlack(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 6000, 100_000} {
		body := bytes.Repeat([]byte{7}, n)
		data, err := readAllExact(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, body) {
			t.Fatalf("%d bytes: read changed them", n)
		}
		if cap(data) != len(data) {
			t.Errorf("%d bytes: buffer cap %d != len %d", n, cap(data), len(data))
		}
	}
}

// TestRegistryKindsRoundTrip asserts the kind-table contract for every
// kind at once: the binary container round-trips
// bit-identically, SynopsisKind survives the trip, and the loaded
// release writes the same JSON dump as the built one.
func TestRegistryKindsRoundTrip(t *testing.T) {
	dumps := validJSONDumps(t)
	for name, s := range validSynopses(t) {
		t.Run(name, func(t *testing.T) {
			kind := SynopsisKind(s)
			if kind == "" {
				t.Fatalf("SynopsisKind(%T) = \"\": kind unknown", s)
			}
			var bin bytes.Buffer
			if err := WriteSynopsis(&bin, s); err != nil {
				t.Fatal(err)
			}
			data := bytes.Clone(bin.Bytes())
			loaded, err := ReadSynopsis(&bin)
			if err != nil {
				t.Fatal(err)
			}
			if got := SynopsisKind(loaded); got != kind {
				t.Errorf("kind changed across binary round trip: %q -> %q", kind, got)
			}
			var again bytes.Buffer
			if err := WriteSynopsis(&again, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again.Bytes()) {
				t.Errorf("binary round trip not bit-identical (%d -> %d bytes)", len(data), again.Len())
			}

			var js bytes.Buffer
			if err := WriteSynopsisFormat(&js, loaded, FormatJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Bytes(), dumps[name]) {
				t.Error("loaded release's JSON dump differs from the built release's")
			}
		})
	}
}

// TestAssembleShardedNewKinds: every embeddable kind composes into a
// sharded release through AssembleSharded, round-trips through the
// container, including the serving load dpserve uses, and the loaded
// release writes the assembled release's JSON dump.
func TestAssembleShardedNewKinds(t *testing.T) {
	dom, err := NewDomain(0, 0, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func(tile Domain, src NoiseSource) (Synopsis, error){
		"hierarchy": func(tile Domain, src NoiseSource) (Synopsis, error) {
			return BuildHierarchy(nil, tile, 1, HierarchyOptions{GridSize: 4, Branching: 2, Depth: 2}, src)
		},
		"kd-tree": func(tile Domain, src NoiseSource) (Synopsis, error) {
			return BuildKDTree(nil, tile, 1, KDTreeOptions{Method: KDHybrid}, src)
		},
		"privlet": func(tile Domain, src NoiseSource) (Synopsis, error) {
			return BuildPrivlet(nil, tile, 1, PrivletOptions{GridSize: 3}, src)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tiles := make([]Synopsis, plan.NumTiles())
			for i := range tiles {
				var err error
				tiles[i], err = build(plan.Tile(i), NewNoiseSource(int64(100+i)))
				if err != nil {
					t.Fatal(err)
				}
			}
			sh, err := AssembleSharded(plan, 1, tiles)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := SynopsisKind(sh), "sharded("+name+")"; got != want {
				t.Errorf("SynopsisKind = %q, want %q", got, want)
			}
			r := NewRect(1, 1, 18, 9)
			want := sh.Query(r)

			var bin bytes.Buffer
			if err := WriteSynopsis(&bin, sh); err != nil {
				t.Fatal(err)
			}
			data := bytes.Clone(bin.Bytes())
			loaded, err := ReadSynopsis(&bin)
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.Query(r); got != want {
				t.Errorf("binary round trip changed answer: %g vs %g", got, want)
			}
			var again bytes.Buffer
			if err := WriteSynopsis(&again, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again.Bytes()) {
				t.Error("binary round trip not bit-identical")
			}

			served, err := LoadSynopsis(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := served.Query(r); got != want {
				t.Errorf("served answer %g != eager %g", got, want)
			}

			var wantJSON, gotJSON bytes.Buffer
			if err := WriteSynopsisFormat(&wantJSON, sh, FormatJSON); err != nil {
				t.Fatal(err)
			}
			if err := WriteSynopsisFormat(&gotJSON, loaded, FormatJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
				t.Error("loaded release's JSON dump differs from the assembled release's")
			}
		})
	}
}

// TestAssembleShardedRejectsBadTiles: Assemble validates composition
// invariants — mixed kinds, wrong tile domains, and mismatched epsilon
// must all fail rather than produce a release that misreports its
// privacy budget.
func TestAssembleShardedRejectsBadTiles(t *testing.T) {
	dom, _ := NewDomain(0, 0, 20, 20)
	plan, err := NewShardPlan(dom, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	hier := func(tile Domain, eps float64) Synopsis {
		h, err := BuildHierarchy(nil, tile, eps, HierarchyOptions{GridSize: 4, Branching: 2, Depth: 2}, NewNoiseSource(9))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ugTile := func(tile Domain) Synopsis {
		u, err := BuildUniformGrid(nil, tile, 1, UGOptions{GridSize: 2}, NewNoiseSource(9))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	cases := map[string][]Synopsis{
		"too few tiles": {hier(plan.Tile(0), 1)},
		"mixed kinds":   {hier(plan.Tile(0), 1), ugTile(plan.Tile(1))},
		"wrong domain":  {hier(plan.Tile(0), 1), hier(plan.Tile(0), 1)},
		"wrong epsilon": {hier(plan.Tile(0), 1), hier(plan.Tile(1), 2)},
		"unregistered":  {stubSynopsis{}, stubSynopsis{}},
	}
	for name, tiles := range cases {
		if _, err := AssembleSharded(plan, 1, tiles); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// goldenSATTrailerLen reads a golden UG/AG container's dimension fields
// off the wire and returns its summed-area trailer's byte length:
// tag (2) + alignment padding (6: UG and AG bodies end 8-byte aligned)
// + length prefix (8) + (mx+1)*(my+1) float64 entries.
func goldenSATTrailerLen(t testing.TB, data []byte) int {
	t.Helper()
	d, kind, err := codec.NewDec(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Domain(); err != nil {
		t.Fatal(err)
	}
	d.F64() // eps
	var mx, my int
	switch kind {
	case codec.KindUniform:
		d.Int32() // m
		mx, my = d.Int32(), d.Int32()
	case codec.KindAdaptive:
		d.F64() // alpha
		mx = d.Int32()
		my = mx
	default:
		t.Fatalf("goldenSATTrailerLen: unexpected kind %v", kind)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return 2 + 6 + 8 + 8*(mx+1)*(my+1)
}

// TestGoldenSATSectionIgnorable locks the forward-compatibility promise
// of the summed-area trailer: stripping the section from a committed
// golden container yields a file that still decodes, and the two
// decodes answer every query bit-identically. The trailer is an
// acceleration structure, never a source of truth — readers that drop
// it (or predate it) lose speed, not correctness.
func TestGoldenSATSectionIgnorable(t *testing.T) {
	for _, name := range []string{"ug", "ag"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden."+name+".dpgrid"))
		if err != nil {
			t.Fatal(err)
		}
		satLen := goldenSATTrailerLen(t, golden)
		if satLen >= len(golden) {
			t.Fatalf("%s: trailer length %d >= file length %d", name, satLen, len(golden))
		}
		full, err := ReadSynopsis(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("%s: full decode: %v", name, err)
		}
		stripped, err := ReadSynopsis(bytes.NewReader(golden[:len(golden)-satLen]))
		if err != nil {
			t.Fatalf("%s: stripped decode: %v", name, err)
		}
		for _, r := range []Rect{
			NewRect(0, 0, 20, 20),
			NewRect(1.5, 2.5, 18, 19),
			NewRect(9, 9, 11, 11),
			NewRect(-5, -5, 50, 50),
			NewRect(3, 3, 3, 3),
		} {
			a, b := full.Query(r), stripped.Query(r)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: Query(%v): SAT-backed %v, stripped %v (not bit-identical)", name, r, a, b)
			}
		}
		// The stripped container re-encodes back to the committed golden
		// bytes: the trailer is a pure function of the body.
		var again bytes.Buffer
		if err := WriteSynopsis(&again, stripped); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(golden, again.Bytes()) {
			t.Errorf("%s: stripped decode re-encoded to different bytes than the golden file", name)
		}
	}
}
