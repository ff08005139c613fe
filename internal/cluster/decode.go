package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"

	"github.com/dpgrid/dpgrid/internal/atof"
)

// Query-path body decoding without reflection. Every in-repo client
// (json.Marshal on the router and the load drivers, writeJSON on a
// backend) sends the three query-path messages in one canonical shape,
// and decoding that shape through encoding/json's reflection costs
// about as much as answering the query. The scanner below decodes the
// canonical shape straight from the body bytes and declines anything
// else; declined bytes go to encoding/json unchanged, so accepted
// inputs, decoded values and error texts are exactly those of
// json.NewDecoder(r).Decode. The scanner accepts:
//
//   - an object with only the message's own keys, each at most once,
//     spelled exactly as in the struct tags, in any order;
//   - strings without escapes or control bytes, in valid UTF-8;
//   - numbers in JSON syntax that atof.ParseFloat (or strconv.ParseInt,
//     for int fields) takes without error. atof.ParseFloat returns the
//     bits of strconv.ParseFloat(s, 64), the call encoding/json makes,
//     and FuzzParseFloat checks it against that call;
//   - rects of exactly four numbers;
//   - JSON whitespace between tokens and at either end.
//
// It declines null, any other key, any other value type, and trailing
// bytes other than whitespace.

// DecodeBody reads r to the end and decodes the bytes into a zeroed v.
// scan gets the first try: it decodes the canonical shape into v and
// reports whether it did. When it declines, or reading failed, v is
// reset and encoding/json decodes the same bytes, followed by the read
// error if there was one: the input json.NewDecoder(r).Decode(v) would
// have seen. sizeHint (a Content-Length; 0 or -1 when unknown) presizes
// the read buffer.
func DecodeBody[T any](r io.Reader, sizeHint int64, v *T, scan func([]byte, *T) bool) error {
	var zero T
	*v = zero
	body, err := readBody(r, sizeHint)
	if err == nil && scan(body, v) {
		return nil
	}
	*v = zero
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	return json.NewDecoder(src).Decode(v)
}

// maxSizeHint caps the buffer a declared Content-Length may presize: a
// peer can claim a size it never sends, so past this the buffer grows
// with the bytes that actually arrive.
const maxSizeHint = 1 << 20

// readBody is io.ReadAll with an initial capacity taken from the
// declared size, so a body that matches its Content-Length is read
// with one allocation.
func readBody(r io.Reader, sizeHint int64) ([]byte, error) {
	size := 512
	if sizeHint > 0 && sizeHint < maxSizeHint {
		size = int(sizeHint) + 1 // +1: the final read that sees EOF needs room
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// ScanQuery decodes the canonical body of POST /v1/query,
// {"synopsis":…,"rects":[[minX,minY,maxX,maxY],…]}. ok is false when
// body is in any other shape.
func ScanQuery(body []byte) (synopsis string, rects [][4]float64, ok bool) {
	s := scanner{b: body}
	var seen uint8
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "synopsis":
			return once(&seen, 1) && s.str(&synopsis)
		case "rects":
			return once(&seen, 2) && s.rects(&rects)
		}
		return false
	}) && s.end()
	return synopsis, rects, ok
}

// ScanShardQueryRequest decodes the canonical body of the backend's
// POST /v1/cluster/query into v and reports whether body had that
// shape.
func ScanShardQueryRequest(body []byte, v *ShardQueryRequest) bool {
	s := scanner{b: body}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "synopsis":
			return once(&seen, 1) && s.str(&v.Synopsis)
		case "tiles":
			return once(&seen, 2) && s.ints(&v.Tiles)
		case "rects":
			return once(&seen, 4) && s.rects(&v.Rects)
		}
		return false
	}) && s.end()
}

// ScanShardQueryResponse decodes the canonical body of a backend's
// partial answers into v and reports whether body had that shape.
func ScanShardQueryResponse(body []byte, v *ShardQueryResponse) bool {
	s := scanner{b: body}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "synopsis":
			return once(&seen, 1) && s.str(&v.Synopsis)
		case "partials":
			return once(&seen, 2) && s.partials(&v.Partials)
		}
		return false
	}) && s.end()
}

// scanner walks b from offset i. Every method reports false to
// decline; a declined scan leaves the destination partly written, and
// DecodeBody resets it.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the byte c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// once marks bit in seen, declining a key that appeared before.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object scans {"key":value,…}; field consumes the value of each key.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		key, ok := s.rawString()
		if !ok || !s.lit(':') || !field(key) {
			return false
		}
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

// array scans [elem,…]; elem consumes one element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.lit(',') {
			return s.lit(']')
		}
	}
}

// rawString scans a string without escapes or control bytes and
// returns its bytes between the quotes, not yet checked for UTF-8.
func (s *scanner) rawString() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			raw := s.b[s.i:j]
			s.i = j + 1
			return raw, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// str scans a string value in valid UTF-8, which encoding/json
// returns byte for byte.
func (s *scanner) str(dst *string) bool {
	raw, ok := s.rawString()
	if !ok || !utf8.Valid(raw) {
		return false
	}
	*dst = string(raw)
	return true
}

// number scans one token in JSON number syntax:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return b[start:i], true
}

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (s *scanner) float(dst *float64) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	v, err := atof.ParseFloat(tok)
	if err != nil {
		return false
	}
	*dst = v
	return true
}

func (s *scanner) integer(dst *int) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// rects scans an array of [minX,minY,maxX,maxY] quadruples. Like
// encoding/json, an empty array decodes to an empty, non-nil slice.
func (s *scanner) rects(dst *[][4]float64) bool {
	*dst = [][4]float64{}
	return s.array(func() bool {
		var q [4]float64
		if !s.lit('[') {
			return false
		}
		for k := range q {
			if k > 0 && !s.lit(',') || !s.float(&q[k]) {
				return false
			}
		}
		*dst = append(*dst, q)
		return s.lit(']')
	})
}

func (s *scanner) ints(dst *[]int) bool {
	*dst = []int{}
	return s.array(func() bool {
		var v int
		if !s.integer(&v) {
			return false
		}
		*dst = append(*dst, v)
		return true
	})
}

// partials scans the per-rect lists of {"tile":…,"count":…} partials.
func (s *scanner) partials(dst *[][]TilePartial) bool {
	*dst = [][]TilePartial{}
	return s.array(func() bool {
		parts := []TilePartial{}
		ok := s.array(func() bool {
			var tp TilePartial
			var seen uint8
			if !s.object(func(key []byte) bool {
				switch string(key) {
				case "tile":
					return once(&seen, 1) && s.integer(&tp.Tile)
				case "count":
					return once(&seen, 2) && s.float(&tp.Count)
				}
				return false
			}) {
				return false
			}
			parts = append(parts, tp)
			return true
		})
		*dst = append(*dst, parts)
		return ok
	})
}
