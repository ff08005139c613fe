package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// DefaultSpillPoints is the default aggregate in-memory budget of the
// one-scan streaming partitioner (see Options.MaxBufferedPoints): 4M
// points = 64 MiB of buffered point data before a sweep flushes every
// tile's buffer to its spill file.
const DefaultSpillPoints = 1 << 22

// noSpill is the spill budget of a source already in memory: its points
// are partitioned into per-tile blocks and never swept to disk.
const noSpill = math.MaxInt

// spillRecordSize is the on-disk size of one point: two little-endian
// IEEE-754 float64s. The encoding is exact, so a point read back from a
// spill file is bit-identical to the one routed into it.
const spillRecordSize = 16

// spill is the result of the one-scan streaming partition: every
// in-domain point of the source, routed to its owning tile, held as an
// in-memory chain of blocks per tile with overflow in per-tile temp
// files. It exists so a KxL streaming build costs one scan of the raw
// source instead of kx*ky filtered re-scans; per-tile builders then
// replay their own (compact, binary) spool as many times as they need.
type spill struct {
	dir    string // created by the first sweep; empty while nothing spilled
	spools []tileSpool
	w      *bufio.Writer // reused across sweep file appends
}

// tileSpool holds one tile's points: n points spilled to the file at
// path (empty until the tile's first flush) followed by the in-memory
// tail. Appends preserve stream order, so replaying file-then-tail
// replays the tile's points exactly as a filtered scan of the source
// would. The tail is a chain of blocks, so routing a point never copies
// the ones already routed.
type tileSpool struct {
	path string
	n    int64 // points in the spill file
	tail geom.Blocks
}

// partitionSpill scans seq exactly once and partitions its in-domain
// points into per-tile spools. memBudget caps the aggregate number of
// buffered points (0 means DefaultSpillPoints, noSpill means no cap);
// when the budget fills, every non-empty buffer is swept to its tile's
// spill file in one pass.
// The temp directory is created by the first sweep, so a stream that
// fits the budget never touches the file system. The caller must Close
// the returned spill to remove the temp files.
func partitionSpill(seq geom.PointSeq, plan Plan, memBudget int) (*spill, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if memBudget <= 0 {
		memBudget = DefaultSpillPoints
	}
	sp := &spill{spools: make([]tileSpool, plan.NumTiles())}
	buffered := 0
	err := seq.ForEachChunk(func(chunk []geom.Point) error {
		for _, p := range chunk {
			i := plan.TileIndex(p)
			if i < 0 {
				continue
			}
			sp.spools[i].tail.Append(p)
			buffered++
		}
		if buffered > memBudget {
			if err := sp.sweep(); err != nil {
				return err
			}
			buffered = 0
		}
		return nil
	})
	if err != nil {
		sp.Close()
		return nil, fmt.Errorf("shard: partitioning stream: %w", err)
	}
	return sp, nil
}

// sweep appends every non-empty in-memory buffer to its tile's spill
// file and resets the buffers (keeping their blocks — the steady-state
// memory is the budget, not the dataset). Files are opened per sweep and
// closed again so a planet-scale mosaic never holds one descriptor per
// tile.
func (s *spill) sweep() error {
	var rec [spillRecordSize]byte
	if s.dir == "" {
		dir, err := os.MkdirTemp("", "dpgrid-spill-")
		if err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
		s.dir = dir
		s.w = bufio.NewWriterSize(nil, 64<<10)
	}
	for i := range s.spools {
		t := &s.spools[i]
		if len(t.tail) == 0 {
			continue
		}
		if t.path == "" {
			t.path = filepath.Join(s.dir, fmt.Sprintf("tile%06d.pts", i))
		}
		f, err := os.OpenFile(t.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
		if err != nil {
			return fmt.Errorf("spill tile %d: %w", i, err)
		}
		w := s.w
		w.Reset(f)
		n := 0
		for _, blk := range t.tail {
			n += len(blk)
			for _, p := range blk {
				binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(p.X))
				binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(p.Y))
				if _, err := w.Write(rec[:]); err != nil {
					f.Close()
					return fmt.Errorf("spill tile %d: %w", i, err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("spill tile %d: %w", i, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("spill tile %d: %w", i, err)
		}
		t.n += int64(n)
		t.tail.Reset()
	}
	return nil
}

// Close removes the spill directory and every spill file in it; it is
// a no-op when nothing was spilled.
func (s *spill) Close() error {
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// tileSeq returns the re-iterable point source of tile i: the spill
// file's records (if any) followed by the in-memory tail, in original
// stream order. A tile that never spilled is its tail's blocks, which
// the per-tile builders scan in place instead of gathering a copy.
func (s *spill) tileSeq(i int) geom.PointSeq {
	t := &s.spools[i]
	if t.n == 0 {
		return t.tail
	}
	return spoolSeq{spool: t}
}

// spoolSeq replays a tile that spilled: its file, then its tail.
type spoolSeq struct{ spool *tileSpool }

// ForEachChunk implements geom.PointSeq.
func (q spoolSeq) ForEachChunk(fn func(chunk []geom.Point) error) error {
	t := q.spool
	f, err := os.Open(t.path)
	if err != nil {
		return fmt.Errorf("shard: reading spill: %w", err)
	}
	err = readSpool(f, t.n, fn)
	f.Close()
	if err != nil {
		return err
	}
	return t.tail.ForEachChunk(fn)
}

// readSpool decodes n binary point records from r in chunks.
func readSpool(r io.Reader, n int64, fn func(chunk []geom.Point) error) error {
	br := bufio.NewReaderSize(r, 256<<10)
	chunk := make([]geom.Point, 0, geom.DefaultChunkSize)
	var rec [spillRecordSize]byte
	for read := int64(0); read < n; read++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("shard: reading spill: %w", err)
		}
		chunk = append(chunk, geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
		})
		if len(chunk) == cap(chunk) {
			if err := fn(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if len(chunk) > 0 {
		return fn(chunk)
	}
	return nil
}
