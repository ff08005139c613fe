package dpgrid

import (
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/datasets"
	"github.com/dpgrid/dpgrid/internal/geom"
)

// PointSeq is a re-iterable stream of points, the input abstraction for
// building synopses over datasets too large to hold in memory. Its one
// method, ForEachChunk(fn func(chunk []Point) error) error, hands fn
// the whole stream in order as non-empty chunks that are only valid
// until fn returns, stops at fn's first error and returns it, and must
// replay the full stream on every call (the AG build re-scans a source
// too large to gather into memory).
// SlicePoints and CSVFilePoints implement it; a per-point source
// implements it by buffering its points into a slice of 8192 (the
// built-in sources' chunk size) and handing each full slice, and the
// final partial one, to fn.
type PointSeq = geom.PointSeq

// SlicePoints adapts an in-memory []Point to PointSeq.
type SlicePoints = geom.SlicePoints

// CSVFilePoints returns a PointSeq streaming "x,y" records from the file
// at path, re-opening it on each pass and parsing 1 MiB blocks in
// parallel, with the points delivered in file order.
// Building UG with a fixed grid size performs one scan. Choosing the
// grid size from the data, UG performs one scan that counts and gathers
// the points when the file has up to 8M in-domain points, and two
// bounded-memory scans past that; AG performs one gathering scan up to
// 8M in-domain points and three bounded-memory scans past that,
// matching the paper's out-of-core construction claim.
func CSVFilePoints(path string) PointSeq {
	return datasets.CSVFileSeq{Path: path}
}

// BuildUniformGridSeq is BuildUniformGrid over a streaming point source.
func BuildUniformGridSeq(seq PointSeq, dom Domain, eps float64, opts UGOptions, src NoiseSource) (*UniformGrid, error) {
	return core.BuildUniformGridSeq(seq, dom, eps, opts, src)
}

// BuildAdaptiveGridSeq is BuildAdaptiveGrid over a streaming point source.
func BuildAdaptiveGridSeq(seq PointSeq, dom Domain, eps float64, opts AGOptions, src NoiseSource) (*AdaptiveGrid, error) {
	return core.BuildAdaptiveGridSeq(seq, dom, eps, opts, src)
}
