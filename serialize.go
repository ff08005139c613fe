package dpgrid

import (
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/atomicfile"
	"github.com/dpgrid/dpgrid/internal/codec"
)

// A synopsis file holds one release (cell boundaries and noisy counts,
// the paper's definition — so a file costs no privacy beyond the
// epsilon already spent), in one of two encodings:
//
//   - FormatBinary: the "dpgridv2" container — little-endian,
//     length-prefixed float64 sections, and for sharded manifests a
//     per-shard offset table that lets every tile be read in place. It
//     is the release format: the default that is written, and the only
//     one that loads.
//   - FormatJSON: a human-readable, versioned JSON dump of the same
//     release. Nothing reads it back; the loaders reject it with an
//     error that says so.
const (
	FormatJSON   = "json"
	FormatBinary = "binary"
)

// WriteSynopsis serializes a released synopsis (any kind, built or
// loaded — UniformGrid, AdaptiveGrid, Hierarchy, KDTree, Privlet or
// Sharded) as a dpgridv2 binary container, which
// ReadSynopsis and LoadSynopsis load. A Sharded release
// serializes as a manifest embedding one per-shard container per tile.
// The container is decoded without parsing — on little-endian hosts
// the decoded tables are its own aligned float sections (see
// LoadSynopsis).
func WriteSynopsis(w io.Writer, s Synopsis) error {
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

// WriteSynopsisBinary is WriteSynopsis.
//
// Deprecated: WriteSynopsis writes the binary container; use it.
func WriteSynopsisBinary(w io.Writer, s Synopsis) error { return WriteSynopsis(w, s) }

// SynopsisKind reports the short kind name of a released or loaded
// synopsis (e.g. "adaptive-grid"); sharded releases append the
// embedded tile kind, as in "sharded(adaptive-grid)". It returns "" for
// values that do not report a container kind — serving layers can treat
// that as "unknown" rather than an error.
func SynopsisKind(s Synopsis) string {
	k, ok := s.(codec.Kinder)
	if !ok {
		return ""
	}
	name := k.ContainerKind().String()
	if tk, ok := s.(interface{ TileKind() codec.Kind }); ok {
		name += "(" + tk.TileKind().String() + ")"
	}
	return name
}

// WriteSynopsisFormat serializes s in the named format (FormatBinary,
// or FormatJSON for the write-only dump) — the programmatic face of the
// CLI -format flag.
func WriteSynopsisFormat(w io.Writer, s Synopsis, format string) error {
	switch format {
	case FormatJSON:
		wt, ok := s.(io.WriterTo)
		if !ok {
			return fmt.Errorf("dpgrid: cannot serialize %T (no JSON encoding; every released synopsis type has one)", s)
		}
		_, err := wt.WriteTo(w)
		return err
	case FormatBinary:
		return WriteSynopsis(w, s)
	default:
		return fmt.Errorf("dpgrid: unknown synopsis file format %q (want %q or %q)", format, FormatJSON, FormatBinary)
	}
}

// ReadSynopsis deserializes a synopsis written by WriteSynopsis,
// validating the container's structure; a JSON dump is rejected. It is
// LoadSynopsis over a buffer of its own: the synopsis may retain that
// buffer, which therefore holds exactly the bytes read (no read-ahead
// slack outlives the call).
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

// WriteSynopsisFile writes s to path with WriteSynopsis (binary). The
// write is atomic — it goes to a temporary file in the same directory
// that is renamed over path only on success — so a failure (disk full,
// encode error) never destroys an existing synopsis file a server may
// be loading from. A fresh file gets the umask-governed default mode
// (as os.Create would); overwriting preserves the existing file's mode.
func WriteSynopsisFile(path string, s Synopsis) error {
	return WriteSynopsisFileFormat(path, s, FormatBinary)
}

// WriteSynopsisFileFormat is WriteSynopsisFile with an explicit
// encoding (FormatBinary, or FormatJSON for the write-only dump), with
// the same atomicity guarantees.
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
// WriteSynopsisFile (or WriteSynopsis) from path. It is
// LoadSynopsisFile.
func ReadSynopsisFile(path string) (Synopsis, error) { return LoadSynopsisFile(path) }
