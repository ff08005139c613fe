package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/dpgrid/dpgrid"
	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/core"
	"github.com/dpgrid/dpgrid/internal/geom"
	"github.com/dpgrid/dpgrid/internal/grid"
	"github.com/dpgrid/dpgrid/internal/noise"
	"github.com/dpgrid/dpgrid/internal/shard"
)

// fastRepeats is how often the traced run repeats the ingest steps that
// take milliseconds, reporting the median.
const fastRepeats = 5

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t)
	}
	return time.Duration(medianDuration(ds) * float64(time.Second)), nil
}

// ingestLayers splits the dpgrid CLI's release into the public calls it
// makes, timing each on this run's inputs: CSV scan, level-1 histogram,
// AG build (with its noise draws), binary encode, atomic write, and the
// two load paths dpserve uses. The in-process build must encode to the
// CLI's exact bytes. cliWall is the CLI's wall time for the same release.
func (b *bench) ingestLayers(cliWall float64) error {
	m := b.metrics
	cli := b.tr.add("dpgrid.cli", noParent, -1, time.Duration(cliWall*float64(time.Second)), 1)

	// CSV scan: drain the block reader the CLI streams from.
	chunks, ok := dpgrid.CSVFilePoints(b.csv).(geom.ChunkSeq)
	if !ok {
		return fmt.Errorf("CSVFilePoints no longer streams chunks")
	}
	sp := b.tr.begin("geom.csv_scan", cli, -1)
	var scanned int
	t := time.Now()
	err := chunks.ForEachChunk(func(c []dpgrid.Point) error {
		scanned += len(c)
		return nil
	})
	scan := time.Since(t)
	b.tr.end(sp, scanned)
	if err != nil {
		return err
	}
	m["geom.csv_scan_s"] = scan.Seconds()

	// AG build on the in-memory points with the CLI's seed and options.
	pts := dpgrid.SlicePoints(b.dset.Points)
	dom := b.dset.Domain
	sp = b.tr.begin("core.ag_build", cli, -1)
	t = time.Now()
	var built dpgrid.Synopsis
	if b.w.shards != "" {
		kx, ky, err := shard.ParseDims(b.w.shards)
		if err != nil {
			return err
		}
		plan, err := dpgrid.NewShardPlan(dom, kx, ky)
		if err != nil {
			return err
		}
		built, err = dpgrid.BuildShardedAdaptiveGridSeq(pts, plan, releaseEps, dpgrid.AGOptions{}, dpgrid.ShardOptions{}, dpgrid.NewNoiseSource(releaseNoiseSeed))
		if err != nil {
			return err
		}
	} else {
		built, err = dpgrid.BuildAdaptiveGridSeq(pts, dom, releaseEps, dpgrid.AGOptions{}, dpgrid.NewNoiseSource(releaseNoiseSeed))
		if err != nil {
			return err
		}
	}
	agBuild := time.Since(t)
	b.tr.end(sp, len(b.dset.Points))
	m["core.ag_build_s"] = agBuild.Seconds()

	// Level-1 histogram at the size the AG m1 rule gives the dataset.
	m1 := core.SuggestedM1(float64(b.dset.N()), releaseEps, core.DefaultC)
	hist, err := timeMedian(1, func() error {
		_, err := grid.FromSeqParallel(dom, m1, m1, pts, b.nproc)
		return err
	})
	if err != nil {
		return err
	}
	b.tr.add("grid.histogram", sp, -1, hist, b.dset.N())
	m["grid.histogram_s"] = hist.Seconds()

	// Noise: one Laplace draw per noisy count of the release.
	samples := 0
	for _, ag := range adaptiveTiles(built) {
		samples += ag.M1()*ag.M1() + ag.LeafCells()
	}
	src := noise.NewSource(releaseNoiseSeed)
	t = time.Now()
	for i := 0; i < samples; i++ {
		sink += noise.Laplace(src, 1/releaseEps)
	}
	draws := time.Since(t)
	b.tr.add("noise.laplace", sp, -1, draws, samples)
	m["noise.samples"] = float64(samples)
	m["noise.laplace_ns"] = float64(draws.Nanoseconds()) / float64(max(samples, 1))

	// Encode, and check the bytes against the CLI's file.
	var buf bytes.Buffer
	enc, err := timeMedian(fastRepeats, func() error {
		buf.Reset()
		return dpgrid.WriteSynopsisBinary(&buf, built)
	})
	if err != nil {
		return err
	}
	b.tr.add("codec.encode", cli, -1, enc, buf.Len())
	m["codec.encode_s"] = enc.Seconds()
	m["codec.encode_bytes"] = float64(buf.Len())
	onDisk, err := os.ReadFile(b.release)
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		b.problem("the in-process AG build does not encode to the CLI's release bytes")
	}

	// Atomic write of those bytes.
	tmp := filepath.Join(b.work, "atomic.dpgrid")
	write, err := timeMedian(fastRepeats, func() error { return atomicfile.WriteBytes(tmp, buf.Bytes()) })
	if err != nil {
		return err
	}
	b.tr.add("atomicfile.write", cli, -1, write, buf.Len())
	m["atomicfile.write_s"] = write.Seconds()
	m["dpgrid.cli_overhead_s"] = cliWall - (scan + agBuild + enc + write).Seconds()

	// The load paths: full decode, and the memory-mapped view.
	dec, err := timeMedian(fastRepeats, func() error {
		_, err := dpgrid.ReadSynopsisFile(b.release)
		return err
	})
	if err != nil {
		return err
	}
	b.tr.add("codec.decode", noParent, -1, dec, len(onDisk))
	m["codec.decode_s"] = dec.Seconds()
	mp, err := timeMedian(fastRepeats, func() error {
		ms, err := dpgrid.MapSynopsisFile(b.release)
		if err != nil {
			return err
		}
		return ms.Close()
	})
	if err != nil {
		return err
	}
	b.tr.add("mmapfile.map", noParent, -1, mp, len(onDisk))
	m["mmapfile.map_s"] = mp.Seconds()
	return nil
}

// adaptiveTiles returns the AG synopses a release consists of: itself,
// or each tile of a sharded release.
func adaptiveTiles(s dpgrid.Synopsis) []*dpgrid.AdaptiveGrid {
	switch v := s.(type) {
	case *dpgrid.AdaptiveGrid:
		return []*dpgrid.AdaptiveGrid{v}
	case *dpgrid.Sharded:
		var out []*dpgrid.AdaptiveGrid
		for i := 0; i < v.NumShards(); i++ {
			out = append(out, adaptiveTiles(v.Shard(i))...)
		}
		return out
	}
	return nil
}
