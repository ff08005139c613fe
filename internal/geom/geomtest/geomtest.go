// Package geomtest provides point sources for testing consumers of
// geom.PointSeq.
package geomtest

import (
	"math"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// ReusedChunks is a geom.PointSeq over its points that holds sources
// to the strictest reading of the chunk contract: every chunk is the
// same backing array, refilled for each call and overwritten with NaN
// points after fn returns. A consumer that keeps a chunk past fn
// instead of copying it reads NaN points, which no domain contains, so
// its result differs from the one over geom.SlicePoints.
type ReusedChunks []geom.Point

// ForEachChunk implements geom.PointSeq.
func (s ReusedChunks) ForEachChunk(fn func(chunk []geom.Point) error) error {
	buf := make([]geom.Point, 0, geom.DefaultChunkSize)
	for start := 0; start < len(s); start += geom.DefaultChunkSize {
		buf = append(buf[:0], s[start:min(start+geom.DefaultChunkSize, len(s))]...)
		err := fn(buf)
		for i := range buf {
			buf[i] = geom.Point{X: math.NaN(), Y: math.NaN()}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
