package shard

import (
	"fmt"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/hierarchy"
	"github.com/dpgrid/dpgrid/internal/kdtree"
	"github.com/dpgrid/dpgrid/internal/wavelet"
)

// Binary (dpgridv2) serialization of sharded releases. The manifest
// body is:
//
//	domain (4 f64) | epsilon (f64) | kx, ky (u32) | shard kind (u16) |
//	shard count (u64) | offset table: count x (offset u64, length u64) |
//	zero padding to 8 bytes | blob length (u64) |
//	blob (concatenated per-shard containers)
//
// Each blob entry is a complete dpgridv2 container of an embeddable
// kind (codec.Kind.Embeddable), so a shard can be cut out of a release
// and served standalone. The offset table lets a reader locate
// any shard's bytes in O(1) without decoding the others, and every tile
// decodes over its own slice of the file.
//
// The blob starts 8-byte aligned and so does every tile (each offset is
// the previous tile's end rounded up to 8, the gap zero-filled), so a
// tile's own aligned f64 sections are aligned in the manifest too and
// decode in place.
//
// Encodings are canonical: offsets are required to follow exactly that
// rule and padding to be zero, so re-encoding a decoded release
// reproduces the bytes exactly.

// errNotEmbeddable rejects a tile kind that cannot be a manifest tile
// (the manifest kind itself is not — no nested sharding).
func errNotEmbeddable(kind codec.Kind) error {
	return fmt.Errorf("shard: shard kind %v is not an embeddable synopsis kind", kind)
}

// ParseTileBinary decodes a dpgridv2 container of an embeddable kind:
// a manifest tile, or a standalone release of that kind. The decoder of
// kind checks that the container holds that kind. On error the result
// is a nil interface, not a typed nil pointer. The result may alias
// data; the caller keeps it immutable and alive for the result's
// lifetime.
func ParseTileBinary(kind codec.Kind, data []byte) (Synopsis, error) {
	var (
		t   Synopsis
		err error
	)
	switch kind {
	case codec.KindUniform:
		t, err = core.ParseUniformGridBinary(data)
	case codec.KindAdaptive:
		t, err = core.ParseAdaptiveGridBinary(data)
	case codec.KindHierarchy:
		t, err = hierarchy.ParseHierarchyBinary(data)
	case codec.KindKDTree:
		t, err = kdtree.ParseTreeBinary(data)
	case codec.KindPrivlet:
		t, err = wavelet.ParsePrivletBinary(data)
	default:
		return nil, errNotEmbeddable(kind)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AppendBinary appends the release's dpgridv2 manifest to dst and
// returns the extended slice.
func (s *Sharded) AppendBinary(dst []byte) ([]byte, error) {
	// Encode every shard first so the offset table can be written
	// before the blob.
	var blob []byte
	offsets := make([][2]uint64, len(s.tiles))
	for i, t := range s.tiles {
		for len(blob) != padTo8(len(blob)) {
			blob = append(blob, 0)
		}
		start := len(blob)
		var err error
		blob, err = t.AppendBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("shard: encode tile %d: %w", i, err)
		}
		offsets[i] = [2]uint64{uint64(start), uint64(len(blob) - start)}
	}

	e := codec.NewEnc(dst, codec.KindSharded)
	e.Domain(s.plan.dom)
	e.F64(s.eps)
	e.U32(uint32(s.plan.kx))
	e.U32(uint32(s.plan.ky))
	e.U16(uint16(s.tileKind))
	e.U64(uint64(len(s.tiles)))
	for _, off := range offsets {
		e.U64(off[0])
		e.U64(off[1])
	}
	e.Align()
	e.U64(uint64(len(blob)))
	e.Raw(blob)
	return e.Bytes(), nil
}

// padTo8 rounds n up to a multiple of 8: where a tile that follows a
// tile ending at n starts.
func padTo8(n int) int { return (n + 7) &^ 7 }

// ParseShardedBinary deserializes a dpgridv2 sharded manifest. It
// validates the manifest framing, slices the per-shard payloads out of
// the blob, decodes every one with ParseTileBinary, and then puts the
// tiles through Assemble's checks: each tile must cover its plan tile
// under the manifest epsilon. The tiles may alias data; the caller
// keeps it immutable and alive for the result's lifetime.
func ParseShardedBinary(data []byte) (*Sharded, error) {
	d, dom, eps, err := codec.OpenHead("shard", data, codec.KindSharded)
	if err != nil {
		return nil, err
	}
	kx, ky := d.Int32(), d.Int32()
	shardKind := codec.Kind(d.U16())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: parse synopsis: %w", err)
	}
	plan, err := NewPlan(dom, kx, ky)
	if err != nil {
		return nil, err
	}
	if !shardKind.Embeddable() {
		return nil, errNotEmbeddable(shardKind)
	}
	n := d.Len(16)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: parse synopsis: %w", err)
	}
	if n != plan.NumTiles() {
		return nil, fmt.Errorf("shard: %d shard payloads != kx*ky = %d", n, plan.NumTiles())
	}
	offsets := make([][2]uint64, n)
	// maxBlob bounds every offset and length by the bytes actually left
	// in the file; keeping off+length <= maxBlob means it can never
	// overflow uint64, so a crafted table cannot wrap past the
	// blob-length cross-check below.
	maxBlob := uint64(d.Remaining())
	var end uint64
	for i := range offsets {
		off, length := d.U64(), d.U64()
		if d.Err() != nil {
			break
		}
		if want := uint64(padTo8(int(end))); off != want {
			return nil, fmt.Errorf("shard: tile %d payload offset %d is not packed after the previous tile (want %d)", i, off, want)
		}
		if length == 0 {
			return nil, fmt.Errorf("shard: tile %d payload is empty", i)
		}
		if left := maxBlob - min(off, maxBlob); length > left {
			return nil, fmt.Errorf("shard: tile %d payload length %d exceeds the %d bytes left", i, length, left)
		}
		offsets[i] = [2]uint64{off, length}
		end = off + length
	}
	d.Align()
	blobLen := d.Len(1)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: parse synopsis: %w", err)
	}
	if uint64(blobLen) != end {
		return nil, fmt.Errorf("shard: blob holds %d bytes but the offset table covers %d", blobLen, end)
	}
	blob := d.Raw(blobLen)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("shard: parse synopsis: %w", err)
	}

	tiles := make([]Synopsis, n)
	var gapStart uint64
	for i, off := range offsets {
		for _, b := range blob[gapStart:off[0]] {
			if b != 0 {
				return nil, fmt.Errorf("shard: nonzero padding before tile %d", i)
			}
		}
		gapStart = off[0] + off[1]
		if tiles[i], err = ParseTileBinary(shardKind, blob[off[0]:gapStart]); err != nil {
			return nil, fmt.Errorf("shard: tile %d: %w", i, err)
		}
	}
	return Assemble(plan, eps, tiles)
}
