// Package codec implements the compact binary synopsis container shared
// by every release kind: the "dpgridv2" format. A container is the magic
// string, a little-endian uint16 version and kind, and a kind-specific
// body built from fixed-width little-endian fields and length-prefixed
// float64 sections. It is the one release format that loads (the JSON
// each kind can also write is a dump nothing reads back), and it
// decodes without parsing: version 2 places every float64 section at an
// 8-byte-aligned offset, so on little-endian hosts a decoded section is
// the container's own bytes viewed as a []float64 (see Dec.F64s).
//
// The package deliberately knows nothing about synopsis bodies; it
// provides the container framing (Detect, NewEnc, NewDec), the static
// table of kinds (name, JSON format tag, whether a kind can be a
// sharded tile), truncation-safe primitive access, and the opening
// every JSON dump shares (Head). The per-kind body layouts and decoders
// live next to the types they serialize (internal/core, internal/shard,
// ...).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Magic is the 8-byte prefix of every binary synopsis container; the
// full string keeps accidental collisions implausible.
const Magic = "dpgridv2"

// Version is the one container layout version: writers emit it and
// readers accept only it. Version 2 aligns every float64 section to 8
// bytes (see Enc.Align). Version 1, whose sections were unaligned, no
// longer loads; errVersion1 names its conversion.
const Version = 2

// errVersion1 is NewDec's error for a version-1 container.
var errVersion1 = errors.New("codec: container version 1 no longer loads; convert it with a dpgrid that still reads it: dpgrid -load old.dpgrid -save new.dpgrid")

// align is the boundary containers pad float64 sections to, measured
// from the container's first byte.
const align = 8

// Kind tags the synopsis type a container holds.
type Kind uint16

// The kind numbers are wire format: they never change meaning, and new
// kinds only append. The codecs behind each kind live next to the types
// they serialize; the kinds table below holds their wire identity.
const (
	// KindInvalid is the zero Kind; no container carries it.
	KindInvalid Kind = 0
	// KindUniform tags a UniformGrid payload.
	KindUniform Kind = 1
	// KindAdaptive tags an AdaptiveGrid payload.
	KindAdaptive Kind = 2
	// KindSharded tags a sharded manifest with a per-shard offset table.
	KindSharded Kind = 3
	// KindHierarchy tags a grid-hierarchy (H_{b,d}) payload.
	KindHierarchy Kind = 4
	// KindKDTree tags a kd-tree / quadtree payload.
	KindKDTree Kind = 5
	// KindPrivlet tags a Privlet wavelet payload.
	KindPrivlet Kind = 6
	// kindHist1D tagged a 1-D histogram release. The kind is retired:
	// nothing builds or loads it, and its number stays reserved.
	kindHist1D Kind = 7
)

// kindInfo is a kind's wire identity.
type kindInfo struct {
	name       string // short stable name, rendered by Kind.String
	jsonFormat string // format tag of the kind's JSON dump
	embeddable bool   // may be the tile kind of a sharded manifest
	retired    bool   // reserved number whose releases no longer load
}

// kinds is the static kind table, indexed by Kind. It is contiguous
// from KindUniform to maxKind, so every nonzero kind up to maxKind is
// known, retired ones included. Manifests do not nest, so the sharded
// kind is not embeddable.
var kinds = [...]kindInfo{
	KindUniform:   {"uniform-grid", "dpgrid/uniform-grid", true, false},
	KindAdaptive:  {"adaptive-grid", "dpgrid/adaptive-grid", true, false},
	KindSharded:   {"sharded", "dpgrid/sharded", false, false},
	KindHierarchy: {"hierarchy", "dpgrid/hierarchy", true, false},
	KindKDTree:    {"kd-tree", "dpgrid/kdtree", true, false},
	KindPrivlet:   {"privlet", "dpgrid/privlet", true, false},
	kindHist1D:    {name: "hist1d", retired: true},
}

// maxKind is the highest kind this build knows: NewDec reads a larger
// one as a file from a newer writer.
const maxKind = Kind(len(kinds) - 1)

func (k Kind) info() kindInfo {
	if k > maxKind {
		return kindInfo{}
	}
	return kinds[k]
}

// String implements fmt.Stringer, rendering the kind name (e.g.
// "uniform-grid") and falling back to the numeric tag for kinds this
// build does not know.
func (k Kind) String() string {
	if name := k.info().name; name != "" {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// JSONFormat returns the format tag of the kind's JSON dump (e.g.
// "dpgrid/uniform-grid"), or "" for an unknown kind.
func (k Kind) JSONFormat() string { return k.info().jsonFormat }

// Embeddable reports whether k may be the tile kind of a sharded
// manifest.
func (k Kind) Embeddable() bool { return k.info().embeddable }

// Kinder is implemented by synopses that can report the container kind
// they serialize as. Serving layers use it to expose which estimator
// backs a loaded synopsis.
type Kinder interface {
	ContainerKind() Kind
}

// Detect reports whether data begins with the dpgridv2 magic, which
// every loadable release does.
func Detect(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Enc builds a container by appending little-endian fields to a byte
// slice. The zero Enc is not useful; NewEnc writes the header.
type Enc struct {
	buf   []byte
	start int // offset of the container's first byte in buf
}

// NewEnc starts a container of the given kind, appending to dst (which
// may be nil) so callers can reuse buffers. Alignment is measured from
// the container's own first byte, not from the start of dst.
func NewEnc(dst []byte, kind Kind) *Enc {
	e := &Enc{buf: append(dst, Magic...), start: len(dst)}
	e.U16(Version)
	e.U16(uint16(kind))
	return e
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// F64 appends the IEEE-754 bits of v, little endian.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Align appends zero bytes until the container's length is a multiple
// of 8. Every float64 section starts with one, so its length prefix and
// elements sit at aligned offsets.
func (e *Enc) Align() {
	for (len(e.buf)-e.start)%align != 0 {
		e.buf = append(e.buf, 0)
	}
}

// F64s appends an aligned, length-prefixed float64 section: zero
// padding to an 8-byte boundary, a uint64 element count, then the raw
// bits of every element, stored into the buffer grown once for all.
func (e *Enc) F64s(vs []float64) {
	e.Align()
	e.U64(uint64(len(vs)))
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(vs))[:n+8*len(vs)]
	dst := e.buf[n:]
	for _, v := range vs {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
		dst = dst[8:]
	}
}

// Raw appends b verbatim, with no length prefix; callers that need to
// re-slice it on decode must record its length themselves.
func (e *Enc) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bytes returns the container built so far.
func (e *Enc) Bytes() []byte { return e.buf }

// Dec is a truncation-safe cursor over one container. Every accessor
// checks bounds; the first failure sticks (subsequent reads return
// zeros), so decoders can read a whole structure and check Err once.
// Length prefixes are validated against the remaining bytes before any
// allocation, so a corrupt or hostile length can never demand more
// memory than the file's own size.
type Dec struct {
	data []byte
	off  int
	err  error
}

// NewDec validates the magic, version and kind of data and returns a
// decoder positioned at the start of the kind-specific body, plus the
// kind.
func NewDec(data []byte) (*Dec, Kind, error) {
	if !Detect(data) {
		return nil, KindInvalid, fmt.Errorf("codec: not a %s container", Magic)
	}
	d := &Dec{data: data, off: len(Magic)}
	version := d.U16()
	kind := Kind(d.U16())
	if d.err != nil {
		return nil, KindInvalid, d.err
	}
	switch {
	case version == 1:
		return nil, KindInvalid, errVersion1
	case version != Version:
		return nil, KindInvalid, fmt.Errorf("codec: unsupported container version %d (this build reads version %d)", version, Version)
	}
	// The kind table is contiguous, so an unknown kind splits two ways:
	// one beyond everything this build knows most likely comes from a
	// newer writer (the numbers only ever grow), which deserves an
	// upgrade hint rather than a generic corruption error; kind 0 is a
	// corrupt or tampered container. A retired kind is known but no
	// longer loads.
	switch {
	case kind > maxKind:
		return nil, KindInvalid, fmt.Errorf(
			"codec: synopsis kind %d is newer than this build understands (max known kind %d %q); upgrade dpgrid to read this file",
			kind, uint16(maxKind), maxKind)
	case kind == KindInvalid:
		return nil, KindInvalid, fmt.Errorf("codec: unknown synopsis kind %d (corrupt container)", kind)
	case kind.info().retired:
		return nil, KindInvalid, fmt.Errorf("codec: synopsis kind %d (%v) is retired and no longer loads", kind, kind)
	}
	return d, kind, nil
}

// Err returns the first decoding failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.data) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("codec: "+format+" (offset %d)", append(args, d.off)...)
	}
}

// take consumes n bytes, returning nil (and setting the sticky error)
// when fewer remain.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("truncated: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads one float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Int32 reads a uint32 as an int (always fits).
func (d *Dec) Int32() int { return int(d.U32()) }

// Len reads a uint64 length prefix for elemSize-byte elements and
// validates it against the remaining bytes, so it can safely size an
// allocation.
func (d *Dec) Len(elemSize int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/elemSize) {
		d.fail("section length %d exceeds the %d bytes left", n, d.Remaining())
		return 0
	}
	return int(n)
}

// Align consumes the zero padding Enc.Align writes: the bytes up to
// the next 8-byte offset, which must all be zero so the encoding stays
// canonical.
func (d *Dec) Align() {
	for _, b := range d.take((align - d.off%align) % align) {
		if b != 0 {
			d.fail("nonzero alignment padding byte %#02x", b)
			return
		}
	}
}

// F64s consumes a length-prefixed float64 section of exactly want
// elements. On a little-endian host reading an 8-byte-aligned buffer
// the result aliases the container bytes (see f64s), so it is read-only
// and lives as long as the bytes do; otherwise it is a decoded copy.
func (d *Dec) F64s(want int) []float64 {
	d.Align()
	n := d.Len(8)
	if d.err == nil && n != want {
		d.fail("section holds %d float64s, want %d", n, want)
	}
	return d.section(n)
}

// F64Section is F64s for a section whose length the caller derives
// from the section itself (AG cells, whose m2 is the side of their
// (m2+1)^2 table).
func (d *Dec) F64Section() []float64 {
	d.Align()
	return d.section(d.Len(8))
}

// section consumes n float64s, returning nil after any failure.
func (d *Dec) section(n int) []float64 {
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	return f64s(b)
}

// Raw consumes n bytes verbatim.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Finish returns the sticky error, or an error if unread bytes remain:
// container encodings are canonical, so trailing garbage means a
// corrupt or tampered file.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("codec: %d trailing bytes after container body", d.Remaining())
	}
	return nil
}
