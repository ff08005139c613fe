package dpgrid

import (
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
)

// Synopsis files come in two on-disk encodings carrying the same
// release (cell boundaries and noisy counts, the paper's definition —
// so either file costs no privacy beyond the epsilon already spent):
//
//   - FormatJSON: the original human-readable versioned JSON.
//   - FormatBinary: the compact "dpgridv2" container — little-endian,
//     length-prefixed float64 sections, and for sharded manifests a
//     per-shard offset table that lets every tile be read in place.
//
// ReadSynopsis sniffs the encoding from the leading bytes (binary files
// start with the "dpgridv2" magic, JSON files with '{'), so readers
// never need to be told which they were given.
const (
	FormatJSON   = "json"
	FormatBinary = "binary"
)

// WriteSynopsis serializes a released synopsis (any kind in the
// registry, built or loaded — UniformGrid, AdaptiveGrid, Hierarchy,
// KDTree, Privlet, Hist1D or Sharded) as versioned JSON. A
// Sharded release serializes as a manifest embedding one per-shard
// payload per tile.
// For the compact binary encoding use WriteSynopsisBinary.
func WriteSynopsis(w io.Writer, s Synopsis) error {
	wt, ok := s.(io.WriterTo)
	if !ok {
		return fmt.Errorf("dpgrid: cannot serialize %T (no JSON encoding; every released synopsis type has one)", s)
	}
	_, err := wt.WriteTo(w)
	return err
}

// WriteSynopsisBinary serializes a released synopsis as a dpgridv2
// binary container: a fraction of the JSON size, and decoded without
// parsing — on little-endian hosts the decoded tables are the
// container's own aligned float sections (see LoadSynopsis).
func WriteSynopsisBinary(w io.Writer, s Synopsis) error {
	ba, ok := s.(interface {
		AppendBinary(dst []byte) ([]byte, error)
	})
	if !ok {
		return fmt.Errorf("dpgrid: cannot serialize %T (no binary encoding; every released synopsis type has one)", s)
	}
	data, err := ba.AppendBinary(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SynopsisKind reports the short registered kind name of a released or
// loaded synopsis (e.g. "adaptive-grid"); sharded releases append the
// embedded tile kind, as in "sharded(adaptive-grid)". It returns "" for
// values that do not report a container kind — serving layers can treat
// that as "unknown" rather than an error.
func SynopsisKind(s Synopsis) string {
	k, ok := s.(codec.Kinder)
	if !ok {
		return ""
	}
	name := k.ContainerKind().String()
	if sf, ok := s.(interface{ ShardFormat() string }); ok {
		if reg, ok := codec.LookupJSONFormat(sf.ShardFormat()); ok {
			name += "(" + reg.Name + ")"
		}
	}
	return name
}

// WriteSynopsisFormat serializes s in the named format (FormatJSON or
// FormatBinary) — the programmatic face of the CLI -format flag.
func WriteSynopsisFormat(w io.Writer, s Synopsis, format string) error {
	switch format {
	case FormatJSON:
		return WriteSynopsis(w, s)
	case FormatBinary:
		return WriteSynopsisBinary(w, s)
	default:
		return fmt.Errorf("dpgrid: unknown synopsis file format %q (want %q or %q)", format, FormatJSON, FormatBinary)
	}
}

// ReadSynopsis deserializes a synopsis written by WriteSynopsis or
// WriteSynopsisBinary, sniffing the encoding from the leading bytes and
// validating the file's structure. It is LoadSynopsis over a buffer of
// its own: a binary synopsis may retain that buffer, which therefore
// holds exactly the bytes read (no read-ahead slack outlives the call).
func ReadSynopsis(r io.Reader) (Synopsis, error) {
	data, err := readAllExact(r)
	if err != nil {
		return nil, fmt.Errorf("dpgrid: read synopsis: %w", err)
	}
	return LoadSynopsis(data)
}

// readAllExact is io.ReadAll returning a buffer with cap == len: the
// growth slack of io.ReadAll (up to a quarter of the data) would
// otherwise live as long as a synopsis decoded over the buffer.
func readAllExact(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if cap(data) > len(data) {
		data = append(make([]byte, 0, len(data)), data...)
	}
	return data, nil
}

func readSynopsisJSON(data []byte) (Synopsis, error) {
	env, err := core.ReadEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("dpgrid: %w", err)
	}
	reg, ok := codec.LookupJSONFormat(env.Format)
	if !ok {
		return nil, fmt.Errorf("dpgrid: unknown synopsis format %q", env.Format)
	}
	return reg.DecodeJSON(data)
}

// WriteSynopsisFile writes s to path with WriteSynopsis (JSON). The
// write is atomic — it goes to a temporary file in the same directory
// that is renamed over path only on success — so a failure (disk full,
// encode error) never destroys an existing synopsis file a server may
// be loading from. A fresh file gets the umask-governed default mode
// (as os.Create would); overwriting preserves the existing file's mode.
func WriteSynopsisFile(path string, s Synopsis) error {
	return WriteSynopsisFileFormat(path, s, FormatJSON)
}

// WriteSynopsisFileFormat is WriteSynopsisFile with an explicit
// encoding (FormatJSON or FormatBinary), with the same atomicity
// guarantees.
func WriteSynopsisFileFormat(path string, s Synopsis, format string) error {
	// Validate the format before touching the filesystem so a bad flag
	// value cannot leave staging files behind.
	if format != FormatJSON && format != FormatBinary {
		return fmt.Errorf("dpgrid: unknown synopsis file format %q (want %q or %q)", format, FormatJSON, FormatBinary)
	}
	return writeFileAtomic(path, func(w io.Writer) error {
		return WriteSynopsisFormat(w, s, format)
	})
}

// writeFileAtomic streams encode's output to a temporary file next to
// path and renames it over path only after a successful encode and
// fsync. The mechanics live in internal/atomicfile so the CLIs and
// internal tools share the same staging-and-rename discipline.
func writeFileAtomic(path string, encode func(io.Writer) error) error {
	return atomicfile.Write(path, encode)
}

// ReadSynopsisFile reads a synopsis previously written by
// WriteSynopsisFile (or WriteSynopsis) from path, in either encoding.
// It is LoadSynopsisFile.
func ReadSynopsisFile(path string) (Synopsis, error) { return LoadSynopsisFile(path) }
