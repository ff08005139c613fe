package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// queryBody mirrors dpserve's /v1/query request struct, so the
// differential checks run ScanQuery against encoding/json on the same
// shape.
type queryBody struct {
	Synopsis string       `json:"synopsis"`
	Rects    [][4]float64 `json:"rects"`
}

func scanQueryBody(body []byte, v *queryBody) bool {
	var ok bool
	v.Synopsis, v.Rects, ok = ScanQuery(body)
	return ok
}

// decodeCorpus seeds the table tests and the fuzz target: canonical
// bodies and every class of input the scanners must hand to
// encoding/json. fast names the scanners that must take the body
// themselves: q for ScanQuery, r for ScanShardQueryRequest, p for
// ScanShardQueryResponse.
var decodeCorpus = []struct{ body, fast string }{
	// Canonical shapes, as json.Marshal and json.Encoder write them.
	{`{"synopsis":"city","rects":[[10,10,40,40],[0.5,-3.25,1e-07,12345.678]]}`, "qr"},
	{`{"synopsis":"city","rects":[[10,10,40,40]]}` + "\n", "qr"},
	{`{"synopsis":"city","tiles":[0,3,15],"rects":[[1,2,3,4]]}`, "r"},
	{`{"synopsis":"city","partials":[[{"tile":0,"count":1.5},{"tile":3,"count":-0.25}],[]]}` + "\n", "p"},
	// Key order, whitespace, and absent keys.
	{`{"rects":[[1,2,3,4]],"synopsis":"city"}`, "qr"},
	{" \t\r\n{ \"synopsis\" : \"city\" , \"rects\" : [ [ 1 , 2 , 3 , 4 ] ] } \n\t", "qr"},
	{`{}`, "qrp"},
	{`{"synopsis":"city"}`, "qrp"},
	{`{"partials":[[{"count":2,"tile":1}]]}`, "p"},
	{`{"partials":[[{"tile":1}]]}`, "p"},
	// Empty rects, tiles and partials.
	{`{"synopsis":"city","rects":[]}`, "qr"},
	{`{"synopsis":"city","tiles":[],"rects":[]}`, "r"},
	{`{"synopsis":"city","partials":[]}`, "p"},
	{`{"synopsis":"city","partials":[[],[]]}`, "p"},
	// Numbers.
	{`{"synopsis":"s","rects":[[-0,0,1e-7,1E+2]]}`, "qr"},
	{`{"synopsis":"s","rects":[[1e-400,5e-324,1.7976931348623157e308,0.1]]}`, "qr"},
	{`{"synopsis":"s","rects":[[1e400,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[-1e400,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[01,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[1.,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[.5,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[+1,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[1e,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[1e+,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[-,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[NaN,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[Infinity,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[[0x10,0,0,0]]}`, ""},
	{`{"synopsis":"s","rects":[["1",0,0,0]]}`, ""},
	{`{"synopsis":"s","tiles":[-0,1.0],"rects":[]}`, ""},
	{`{"synopsis":"s","tiles":[1e2],"rects":[]}`, ""},
	{`{"synopsis":"s","tiles":[9223372036854775807,-9223372036854775808],"rects":[]}`, "r"},
	{`{"synopsis":"s","tiles":[9223372036854775808],"rects":[]}`, ""},
	{`{"partials":[[{"tile":1.5,"count":1}]]}`, ""},
	// Rect arity.
	{`{"synopsis":"s","rects":[[1,2,3]]}`, ""},
	{`{"synopsis":"s","rects":[[1,2,3,4,5]]}`, ""},
	{`{"synopsis":"s","rects":[[]]}`, ""},
	{`{"synopsis":"s","rects":[[1,2,3,4,]]}`, ""},
	{`{"synopsis":"s","rects":[[1,2,3,4],]}`, ""},
	// null in every position.
	{`null`, ""},
	{`{"synopsis":null,"rects":[]}`, ""},
	{`{"synopsis":"s","rects":null}`, ""},
	{`{"synopsis":"s","rects":[null]}`, ""},
	{`{"synopsis":"s","rects":[[null,0,0,0]]}`, ""},
	{`{"synopsis":"s","tiles":null,"rects":[]}`, ""},
	{`{"synopsis":"s","partials":[null]}`, ""},
	{`{"synopsis":"s","partials":[[null]]}`, ""},
	// Wrong value types.
	{`{"synopsis":"s","rects":5}`, ""},
	{`{"synopsis":"s","rects":[5]}`, ""},
	{`{"synopsis":"s","tiles":"0","rects":[]}`, ""},
	{`{"synopsis":"s","partials":{}}`, ""},
	{`{"synopsis":"s","partials":[[{"tile":"1"}]]}`, ""},
	// Strings: escapes, control bytes, UTF-8.
	{`{"synopsis":"a\"b","rects":[]}`, ""},
	{`{"synopsis":"a\\b","rects":[]}`, ""},
	{`{"synopsis":"a\u0062","rects":[]}`, ""},
	{"{\"synopsis\":\"a\tb\",\"rects\":[]}", ""},
	{"{\"synopsis\":\"caf\xc3\xa9 \xe2\x82\xac\",\"rects\":[]}", "qr"},
	{"{\"synopsis\":\"\xef\xbf\xbd\",\"rects\":[]}", "qr"},
	{"{\"synopsis\":\"\xff\",\"rects\":[]}", ""},
	{"{\"synopsis\":\"\xed\xa0\x80\",\"rects\":[]}", ""},
	{`{"synopsis":"unterminated,"rects":[]}`, ""},
	{`{"synopsis":1,"rects":[]}`, ""},
	// Keys: case variants, unknown, duplicate, escaped.
	{`{"Synopsis":"city","rects":[]}`, ""},
	{`{"synopsis":"city","RECTS":[[1,2,3,4]]}`, ""},
	{`{"synopsis":"city","rects":[],"extra":1}`, ""},
	{`{"synopsis":"a","synopsis":"b","rects":[]}`, ""},
	{`{"synopsis":"a","rects":[[1,2,3,4]],"rects":[[5,6,7,8]]}`, ""},
	{`{"synopsis":"a","tiles":[1],"tiles":[2],"rects":[]}`, ""},
	{`{"partials":[[{"tile":1,"tile":2,"count":3}]]}`, ""},
	{`{"partials":[[{"Tile":1,"count":3}]]}`, ""},
	{`{"synopsi\u0073":"a","rects":[]}`, ""},
	// Whole-body shape.
	{``, ""},
	{` `, ""},
	{`[]`, ""},
	{`"city"`, ""},
	{`{`, ""},
	{`{"synopsis":"a","rects":[[1,2,3,4]]`, ""},
	{`{"synopsis":"a","rects":[[1,2,3,4]]}x`, ""},
	{`{"synopsis":"a","rects":[[1,2,3,4]]} {}`, ""},
	{`{"synopsis":"a",}`, ""},
	{`{,}`, ""},
	{`{"synopsis" "a"}`, ""},
	{"\xef\xbb\xbf{\"synopsis\":\"a\",\"rects\":[]}", ""},
}

// decodeCase runs one input through DecodeBody and through the
// reflection decoder it replaces, and checks they agree: the same
// error text, and the same value with floats compared bit for bit. It
// reports whether the scanner took the input.
func decodeCase[T any](t *testing.T, data []byte, scan func([]byte, *T) bool) bool {
	t.Helper()
	var got, want T
	gotErr := DecodeBody(bytes.NewReader(data), int64(len(data)), &got, scan)
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if errText(gotErr) != errText(wantErr) {
		t.Errorf("%q: error %q, encoding/json %q", data, errText(gotErr), errText(wantErr))
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("%q: decoded %#v, encoding/json %#v", data, got, want)
	}
	var fast T
	took := scan(data, &fast)
	if took && wantErr != nil {
		t.Errorf("%q: scanner accepted a body encoding/json rejects (%v)", data, wantErr)
	}
	return took
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// -0 differs from 0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// checkAllDecoders runs data through all three query-path decoders.
func checkAllDecoders(t *testing.T, data []byte) (query, request, response bool) {
	t.Helper()
	return decodeCase(t, data, scanQueryBody),
		decodeCase(t, data, ScanShardQueryRequest),
		decodeCase(t, data, ScanShardQueryResponse)
}

func TestDecodeBodyMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCorpus {
		q, r, p := checkAllDecoders(t, []byte(c.body))
		if want := strings.Contains(c.fast, "q"); q != want {
			t.Errorf("ScanQuery took %q: %v, want %v", c.body, q, want)
		}
		if want := strings.Contains(c.fast, "r"); r != want {
			t.Errorf("ScanShardQueryRequest took %q: %v, want %v", c.body, r, want)
		}
		if want := strings.Contains(c.fast, "p"); p != want {
			t.Errorf("ScanShardQueryResponse took %q: %v, want %v", c.body, p, want)
		}
	}
}

// TestDecodeBodyMarshalRoundTrip: what the router's json.Marshal and a
// backend's writeJSON send always takes the fast path and decodes to
// the bits that went in.
func TestDecodeBodyMarshalRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 0.1, 1.0 / 3, -12345.678,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 123456789012345680}
	var rects [][4]float64
	for i := range floats {
		rects = append(rects, [4]float64{floats[i], floats[(i+1)%len(floats)], floats[(i+3)%len(floats)], -floats[i]})
	}
	req := ShardQueryRequest{Synopsis: "road <&> é", Tiles: []int{0, 7, 1 << 40}, Rects: rects}
	resp := ShardQueryResponse{Synopsis: "road", Partials: [][]TilePartial{
		{{Tile: 0, Count: floats[1]}, {Tile: 2, Count: floats[2]}}, {}, {{Tile: 15, Count: floats[5]}},
	}}
	for k, v := range []any{queryBody{Synopsis: req.Synopsis, Rects: rects}, req, resp} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // escapes decline by design; this test is about the fast path
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		var took [3]bool
		took[0], took[1], took[2] = checkAllDecoders(t, buf.Bytes())
		if !took[k] {
			t.Errorf("%s: canonical encoding declined", buf.Bytes())
		}
		// json.Marshal escapes <, > and & in the name: that body falls
		// back, and must still decode to the same value.
		marshaled, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		checkAllDecoders(t, marshaled)
	}
}

// TestDecodeBodyReadErrors: a body cut by a read error (the
// MaxBytesReader cap, a dropped connection) decodes exactly as the
// streaming reflection decoder would have read it.
func TestDecodeBodyReadErrors(t *testing.T) {
	valid := `{"synopsis":"city","rects":[[1,2,3,4]]}`
	cases := []struct {
		body  string
		limit int64
	}{
		{valid, int64(len(valid))},
		{valid, int64(len(valid)) - 1},
		{valid, 10},
		{valid + strings.Repeat(" ", 64), int64(len(valid)) + 8},
		{valid + "trailing garbage past the cap", int64(len(valid)) + 4},
		{strings.Repeat(" ", 100), 50},
	}
	for _, c := range cases {
		var got, want queryBody
		gotErr := DecodeBody(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(c.body)), c.limit),
			int64(len(c.body)), &got, scanQueryBody)
		wantErr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(c.body)), c.limit)).Decode(&want)
		if errText(gotErr) != errText(wantErr) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%q cap %d: got (%#v, %v), encoding/json (%#v, %v)", c.body, c.limit, got, gotErr, want, wantErr)
		}
	}
	boom := errors.New("connection reset")
	for _, cut := range []int{0, 20, len(valid) - 1, len(valid)} {
		newReader := func() io.Reader {
			return io.MultiReader(iotest.HalfReader(strings.NewReader(valid[:cut])), errReader{boom})
		}
		var got, want queryBody
		gotErr := DecodeBody(newReader(), 0, &got, scanQueryBody)
		wantErr := json.NewDecoder(newReader()).Decode(&want)
		if errText(gotErr) != errText(wantErr) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("reset after %d bytes: got (%#v, %v), encoding/json (%#v, %v)", cut, got, gotErr, want, wantErr)
		}
		if cut < len(valid) && !errors.Is(gotErr, boom) {
			t.Errorf("reset after %d bytes: err = %v, want %v", cut, gotErr, boom)
		}
	}
}

// TestReadBodySizeHints: every declared size, right or wrong, reads the
// same bytes.
func TestReadBodySizeHints(t *testing.T) {
	body := strings.Repeat("0123456789", 100)
	for _, hint := range []int64{-1, 0, 1, 511, 512, 999, 1000, 1001, 5000, maxSizeHint, 1 << 40} {
		for name, r := range map[string]io.Reader{
			"plain":   strings.NewReader(body),
			"onebyte": iotest.OneByteReader(strings.NewReader(body)),
			"dataerr": iotest.DataErrReader(strings.NewReader(body)),
		} {
			got, err := readBody(r, hint)
			if err != nil || string(got) != body {
				t.Errorf("hint %d, %s reader: %d bytes, err %v", hint, name, len(got), err)
			}
		}
	}
}

// FuzzDecodeBody: for any bytes, each query-path decoder returns what
// json.NewDecoder(...).Decode returns, and a scanner never accepts a
// body encoding/json rejects.
func FuzzDecodeBody(f *testing.F) {
	for _, c := range decodeCorpus {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllDecoders(t, data)
	})
}
