package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/codec"
)

// Serialization of sharded releases: a manifest envelope carrying the
// plan and the release epsilon, plus one embedded per-shard payload per
// tile in the payload kind's own format — in the JSON dump here, and in
// the dpgridv2 container in binary.go, the one that loads. Any
// registered kind marked codec.Registration.Tile can serve as the tile
// kind; the manifest kind itself is not, so releases never nest.

const (
	// FormatSharded tags serialized Sharded releases.
	FormatSharded = "dpgrid/sharded"
	// serializeVersion is bumped on breaking manifest changes.
	serializeVersion = 1
)

func init() {
	codec.Register(codec.Registration{
		Kind:       codec.KindSharded,
		Name:       "sharded",
		JSONFormat: FormatSharded,
		DecodeBinary: func(data []byte) (codec.Synopsis, error) {
			return ParseShardedBinary(data)
		},
		// Not a Tile: the manifest kind is deliberately not embeddable
		// as a tile of another manifest.
	})
}

// ContainerKind reports the release's container kind.
func (s *Sharded) ContainerKind() codec.Kind { return codec.KindSharded }

// manifestFile is the JSON dump of a sharded release.
type manifestFile struct {
	codec.Head
	KX          int               `json:"kx"`
	KY          int               `json:"ky"`
	ShardFormat string            `json:"shard_format"`
	Shards      []json.RawMessage `json:"shards"` // row-major kx*ky payloads
}

// WriteTo serializes the sharded release as a JSON manifest embedding
// every per-shard payload's JSON dump.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	reg, err := embeddableByKind(s.tileKind)
	if err != nil {
		return 0, err
	}
	f := manifestFile{
		Head:        codec.NewHead(FormatSharded, serializeVersion, s.plan.dom, s.eps),
		KX:          s.plan.kx,
		KY:          s.plan.ky,
		ShardFormat: reg.JSONFormat,
		Shards:      make([]json.RawMessage, len(s.tiles)),
	}
	var buf bytes.Buffer
	for i, tile := range s.tiles {
		wt, ok := tile.(io.WriterTo)
		if !ok {
			return 0, fmt.Errorf("shard: cannot serialize tile %d of type %T", i, tile)
		}
		buf.Reset()
		if _, err := wt.WriteTo(&buf); err != nil {
			return 0, fmt.Errorf("shard: serialize tile %d: %w", i, err)
		}
		f.Shards[i] = json.RawMessage(bytes.Clone(bytes.TrimSpace(buf.Bytes())))
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return 0, fmt.Errorf("shard: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}
