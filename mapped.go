package dpgrid

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/mmapfile"
	"github.com/dpgrid/dpgrid/internal/shard"
)

// ErrSynopsisClosed is returned by MappedSynopsis.QueryStatsCtx after
// Close: the mapping is gone, so the synopsis can no longer answer.
var ErrSynopsisClosed = errors.New("dpgrid: synopsis closed")

// MappedSynopsis is a synopsis served off a memory-mapped file: the
// inner synopsis is the ordinary decoded synopsis, whose float tables
// alias the mapped bytes, so loading costs address space instead of
// heap and the kernel page cache backs the float payload.
// MapSynopsisFile returns one.
//
// Lifecycle: the mapping stays open until Close. Close is the caller's
// explicit, deliberate act — nothing closes implicitly, because an
// in-flight query reading mapped bytes at unmap time would fault the
// process. Serving layers therefore either never close (letting process
// exit clean up, as dpserve does on synopsis replacement) or close only
// after draining their request paths. After Close, QueryStatsCtx
// reports ErrSynopsisClosed; Query has no error channel, so it panics
// with a message naming the bug rather than letting the process die on
// an opaque SIGSEGV or — in the read fallback, where the bytes linger
// until collected — silently serve from a closed file.
//
// MappedSynopsis is safe for concurrent queries; Close may race queries
// only in the sense that it flips the closed flag first, so late
// arrivals fail loudly instead of touching unmapped memory (a query
// already past the check remains the caller's ordering bug, exactly as
// with any close-during-use).
type MappedSynopsis struct {
	inner  Synopsis
	file   *mmapfile.File
	closed atomic.Bool
}

// Unwrap returns the underlying decoded synopsis. Serving layers that
// drain their own request paths (dpserve never closes a mapping) query
// it directly, which also exposes its real type: metadata (Epsilon,
// Domain, ContainerKind, NumShards) and, for sharded releases,
// ShardRouter and ShardContextObserver.
func (m *MappedSynopsis) Unwrap() Synopsis { return m.inner }

// MappedBytes returns the size of the memory-mapped file image backing
// the synopsis, or 0 when the load did not map (platforms or builds
// without mmap, or after Close). It is the per-synopsis term of dpserve's
// mapped-bytes gauge.
func (m *MappedSynopsis) MappedBytes() int64 {
	if !m.file.Mapped() {
		return 0
	}
	return int64(m.file.Len())
}

// SATBacked reports whether queries run on the stored summed-area fast
// path (forwarded from the inner synopsis; false for synopses that do
// not expose the property).
func (m *MappedSynopsis) SATBacked() bool {
	sb, ok := m.inner.(interface{ SATBacked() bool })
	return ok && sb.SATBacked()
}

// Close releases the mapping. See the type comment for the draining
// contract; Close is idempotent.
func (m *MappedSynopsis) Close() error {
	m.closed.Store(true)
	return m.file.Close()
}

// Query estimates the number of data points in r. It panics after
// Close; serving paths should prefer QueryStatsCtx, which returns
// ErrSynopsisClosed instead.
func (m *MappedSynopsis) Query(r Rect) float64 {
	if m.closed.Load() {
		panic("dpgrid: query on a closed MappedSynopsis (drain queries before Close, or use QueryStatsCtx for an error instead of a panic)")
	}
	return m.inner.Query(r)
}

// QueryStatsCtx is the closable form of Query: dpgrid.QueryStatsCtx
// against the inner synopsis, with Close surfaced as ErrSynopsisClosed
// rather than a panic.
func (m *MappedSynopsis) QueryStatsCtx(ctx context.Context, r Rect) (float64, ShardQueryStats, error) {
	if m.closed.Load() {
		return 0, ShardQueryStats{}, ErrSynopsisClosed
	}
	return QueryStatsCtx(ctx, m.inner, r)
}

// errJSONDump is what every loader returns for a JSON synopsis file.
var errJSONDump = errors.New("dpgrid: JSON synopsis files are a write-only dump; load the binary release (-format binary)")

// LoadSynopsis decodes a synopsis from bytes the caller already holds
// (a file read, an upload). Only a dpgridv2 container loads; a JSON
// dump gets an error that says what it is. The container decodes in
// place: on little-endian hosts its float sections become the
// synopsis's tables without a copy (see internal/codec), so loading
// costs descriptors instead of a heap copy of every grid. The result
// may retain data: the caller must not modify it afterwards.
func LoadSynopsis(data []byte) (Synopsis, error) {
	_, kind, err := codec.NewDec(data)
	if err != nil {
		if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
			return nil, errJSONDump
		}
		return nil, fmt.Errorf("dpgrid: %w", err)
	}
	// NewDec already rejected unknown and retired kinds; every kind but
	// the sharded manifest is a tile kind.
	var syn Synopsis
	switch kind {
	case codec.KindSharded:
		syn, err = shard.ParseShardedBinary(data)
	default:
		syn, err = shard.ParseTileBinary(kind, data)
	}
	if err != nil {
		return nil, err // a nil interface, not a typed nil pointer
	}
	return syn, nil
}

// LoadSynopsisFile reads the file at path and decodes it with
// LoadSynopsis. MapSynopsisFile is the same load with the bytes left
// in a memory mapping rather than read onto the heap.
func LoadSynopsisFile(path string) (Synopsis, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dpgrid: %w", err)
	}
	return LoadSynopsis(data)
}

// ReadSynopsisFileLazy is LoadSynopsisFile.
//
// Deprecated: shards are no longer decoded on first touch; use
// LoadSynopsisFile.
func ReadSynopsisFileLazy(path string) (Synopsis, error) { return LoadSynopsisFile(path) }

// MapSynopsisFile loads a synopsis file for serving with a
// memory-mapped backing: the file image is mmap'd (read-only, private;
// see internal/mmapfile) and decoded exactly as LoadSynopsis decodes
// bytes, so the decoded tables answer queries straight from the mapped
// pages. On platforms (or builds) where mmap is unavailable the file is
// read into memory and everything else behaves identically, with
// MappedBytes reporting 0.
//
// The returned synopsis must be kept open for as long as queries may
// run; see MappedSynopsis for the Close contract.
func MapSynopsisFile(path string) (*MappedSynopsis, error) {
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dpgrid: %w", err)
	}
	syn, err := LoadSynopsis(f.Data())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &MappedSynopsis{inner: syn, file: f}, nil
}
