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
// embeddable kind (codec.Kind.Embeddable) can serve as the tile kind;
// the manifest kind itself is not, so releases never nest.

// serializeVersion is bumped on breaking manifest changes.
const serializeVersion = 1

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
	f := manifestFile{
		Head:        codec.NewHead(codec.KindSharded, serializeVersion, s.plan.dom, s.eps),
		KX:          s.plan.kx,
		KY:          s.plan.ky,
		ShardFormat: s.tileKind.JSONFormat(),
		Shards:      make([]json.RawMessage, len(s.tiles)),
	}
	var buf bytes.Buffer
	for i, t := range s.tiles {
		buf.Reset()
		if _, err := t.WriteTo(&buf); err != nil {
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
