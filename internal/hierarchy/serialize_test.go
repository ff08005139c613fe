package hierarchy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/noise"
)

func buildTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	dom := geom.MustDomain(0, 0, 10, 10)
	pts := uniformPoints(7, 500, dom)
	h, err := BuildHierarchy(pts, dom, 1, Options{GridSize: 8, Branching: 2, Depth: 3}, noise.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyBinaryRoundTrip(t *testing.T) {
	h := buildTestHierarchy(t)
	data, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHierarchyBinary(data)
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
	if got.Domain() != h.Domain() || got.Epsilon() != h.Epsilon() {
		t.Fatal("metadata changed across round trip")
	}
	want := h.LevelSizes()
	for i, s := range got.LevelSizes() {
		if s != want[i] {
			t.Fatalf("level sizes %v, want %v", got.LevelSizes(), want)
		}
	}
	r := geom.Rect{MinX: 1, MinY: 2, MaxX: 7, MaxY: 9}
	if got.Query(r) != h.Query(r) {
		t.Fatal("answers changed across round trip")
	}

	if got.Domain() != h.Domain() || got.Epsilon() != h.Epsilon() {
		t.Fatalf("envelope changed across round trip: %v/%g", got.Domain(), got.Epsilon())
	}
}

// TestHierarchyJSONRoundTrip: the JSON dump, read back with
// encoding/json, carries the release — its header, level structure and
// prefix sums bit for bit.
func TestHierarchyJSONRoundTrip(t *testing.T) {
	h := buildTestHierarchy(t)
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f hierFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Head != codec.NewHead(codec.KindHierarchy, serializeVersion, h.Domain(), h.Epsilon()) ||
		f.GridSize != 8 || f.Branching != 2 || f.Depth != 3 {
		t.Errorf("dump header %+v grid %d branching %d depth %d", f.Head, f.GridSize, f.Branching, f.Depth)
	}
	want := h.prefix.Sums()
	if len(f.Sums) != len(want) {
		t.Fatalf("dump holds %d sums, want %d", len(f.Sums), len(want))
	}
	for i, v := range want {
		if math.Float64bits(f.Sums[i]) != math.Float64bits(v) {
			t.Fatalf("sum %d: dump %v, synopsis %v", i, f.Sums[i], v)
		}
	}
}

func TestHierarchyBinaryRejectsCorruption(t *testing.T) {
	h := buildTestHierarchy(t)
	data, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 8, 12, len(data) / 2, len(data) - 1} {
			if _, err := ParseHierarchyBinary(data[:n]); err == nil {
				t.Errorf("accepted %d-byte prefix", n)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := ParseHierarchyBinary(append(append([]byte(nil), data...), 0)); err == nil {
			t.Error("accepted trailing byte")
		}
	})
	t.Run("indivisible shape", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// grid size field follows magic+version+kind (12) + domain (32) +
		// epsilon (8).
		bad[52] = 9
		if _, err := ParseHierarchyBinary(bad); err == nil || !strings.Contains(err.Error(), "divisible") {
			t.Errorf("indivisible grid size: err = %v", err)
		}
	})
	t.Run("huge depth", func(t *testing.T) {
		// A depth of 1.4e9 levels must be refused by the divisibility
		// check long before anything is sized by it.
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint32(bad[60:], 0x51515151)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseHierarchyBinary(bad)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "divisible") {
			t.Errorf("huge depth: err = %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("rejecting a %d-byte file allocated %d bytes", len(bad), grew)
		}
	})
	t.Run("border violation", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// First prefix-sum entry (a border cell) lives at the end of the
		// fixed header: 12+32+8+3*4 + 8-byte section length.
		bad[64+8] = 1
		if _, err := ParseHierarchyBinary(bad); err == nil || !strings.Contains(err.Error(), "border") {
			t.Errorf("border violation: err = %v", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		other := codec.NewEnc(nil, codec.KindUniform).Bytes()
		if _, err := ParseHierarchyBinary(other); err == nil {
			t.Error("accepted a non-hierarchy container")
		}
	})
}

// TestHierarchyJSONRejectsBadShape: a release whose header or level
// structure is bad is rejected. Only the container loads, so the cases
// are planted in its fields.
func TestHierarchyJSONRejectsBadShape(t *testing.T) {
	data, err := buildTestHierarchy(t).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// After magic+version+kind (12): domain (32), epsilon (8), then the
	// grid size, branching and depth u32s at 52, 56 and 60.
	for name, mangle := range map[string]func(b []byte){
		"wrong format":  func(b []byte) { binary.LittleEndian.PutUint16(b[10:], uint16(codec.KindUniform)) },
		"bad branching": func(b []byte) { binary.LittleEndian.PutUint32(b[56:], 3) },
		"zero depth":    func(b []byte) { binary.LittleEndian.PutUint32(b[60:], 0) },
		"bad epsilon":   func(b []byte) { binary.LittleEndian.PutUint64(b[44:], math.Float64bits(-1)) },
	} {
		t.Run(name, func(t *testing.T) {
			bad := bytes.Clone(data)
			mangle(bad)
			if _, err := ParseHierarchyBinary(bad); err == nil {
				t.Error("accepted, want error")
			}
		})
	}
}
