package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/dpgrid/dpgrid/internal/codec"
	"github.com/dpgrid/dpgrid/internal/core"
)

// Serialization of sharded releases: a manifest envelope carrying the
// plan and the release epsilon, plus one embedded per-shard payload per
// tile in the payload kind's own file format. Reusing the per-shard
// formats verbatim means a shard can be extracted from a manifest and
// served standalone, and the per-shard parsers' structural validation
// runs unchanged on every payload. Any registered kind that is
// embeddable (codec.Registration.Embeddable) can serve as the tile
// format; the manifest kind itself is not, so releases never nest.

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
		DecodeJSON: func(data []byte) (codec.Synopsis, error) {
			return ParseSharded(data)
		},
		// Not a Tile: the manifest kind is deliberately not embeddable
		// as a tile of another manifest.
	})
}

// ContainerKind reports the release's container kind.
func (s *Sharded) ContainerKind() codec.Kind { return codec.KindSharded }

// manifestFile is the on-disk sharded release.
type manifestFile struct {
	codec.Head
	KX          int               `json:"kx"`
	KY          int               `json:"ky"`
	ShardFormat string            `json:"shard_format"`
	Shards      []json.RawMessage `json:"shards"` // row-major kx*ky payloads
}

// WriteTo serializes the sharded release as a JSON manifest embedding
// every per-shard payload.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	f := manifestFile{
		Head:        codec.NewHead(FormatSharded, serializeVersion, s.plan.dom, s.eps),
		KX:          s.plan.kx,
		KY:          s.plan.ky,
		ShardFormat: s.format,
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

// ParseSharded deserializes a sharded release, validating the manifest
// structure and every per-shard payload: the plan must be well formed,
// every tile must be present with the declared format, and each shard's
// domain and epsilon must match the manifest — a shard parsing cleanly
// but covering the wrong tile is a corrupt release, not a usable one.
func ParseSharded(data []byte) (*Sharded, error) {
	var f manifestFile
	dom, err := codec.DecodeJSONHead("shard", data, &f, FormatSharded, serializeVersion)
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(dom, f.KX, f.KY)
	if err != nil {
		return nil, err
	}
	shardReg, err := embeddableByFormat(f.ShardFormat)
	if err != nil {
		return nil, err
	}
	if len(f.Shards) != plan.NumTiles() {
		return nil, fmt.Errorf("shard: %d shard payloads != kx*ky = %d", len(f.Shards), plan.NumTiles())
	}

	s := &Sharded{plan: plan, eps: f.Epsilon, format: f.ShardFormat, tiles: make([]Synopsis, plan.NumTiles())}
	for i, raw := range f.Shards {
		env, err := core.ReadEnvelope(raw)
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d: %w", i, err)
		}
		if env.Format != f.ShardFormat {
			return nil, fmt.Errorf("shard: tile %d: format %q != manifest shard format %q", i, env.Format, f.ShardFormat)
		}
		syn, err := shardReg.DecodeJSON(raw)
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d: %w", i, err)
		}
		if s.tiles[i], err = checkTile(s, i, shardReg, syn); err != nil {
			return nil, err
		}
	}
	return s, nil
}
