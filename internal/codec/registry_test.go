package codec

import (
	"strings"
	"testing"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// The real registrations live in the synopsis packages (internal/core,
// internal/shard, ...) next to their codecs, so a codec-only test
// binary starts with an empty registry. Register stand-ins for the
// built-in kinds here — same kinds, same names, stub decoders — so the
// header tests exercise NewDec exactly as a fully linked binary would.
func init() {
	stub := func(data []byte) (Synopsis, error) { return nil, nil }
	for _, r := range []Registration{
		{Kind: KindUniform, Name: "uniform-grid"},
		{Kind: KindAdaptive, Name: "adaptive-grid"},
		{Kind: KindSharded, Name: "sharded"},
		{Kind: KindHierarchy, Name: "hierarchy"},
		{Kind: KindKDTree, Name: "kd-tree"},
		{Kind: KindPrivlet, Name: "privlet"},
	} {
		r.DecodeBinary = stub
		Register(r)
	}
}

func TestRegisterRejectsBadRegistrations(t *testing.T) {
	stub := func(data []byte) (Synopsis, error) { return nil, nil }
	cases := map[string]Registration{
		"zero kind":      {Kind: KindInvalid, Name: "x", DecodeBinary: stub},
		"empty name":     {Kind: Kind(200), DecodeBinary: stub},
		"nil decoder":    {Kind: Kind(200), Name: "x"},
		"duplicate kind": {Kind: KindUniform, Name: "x", DecodeBinary: stub},
		"duplicate name": {Kind: Kind(200), Name: "sharded", DecodeBinary: stub},
	}
	for name, reg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			Register(reg)
		}()
	}
}

func TestLookupByKindNameAndFormat(t *testing.T) {
	reg := Registration{
		Kind:         Kind(210),
		Name:         "lookup-test",
		JSONFormat:   "dpgrid/lookup-test",
		DecodeBinary: func(data []byte) (Synopsis, error) { return nil, nil },
	}
	Register(reg)
	if got, ok := Lookup(Kind(210)); !ok || got.Name != "lookup-test" || got.JSONFormat != "dpgrid/lookup-test" {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if got, ok := LookupName("lookup-test"); !ok || got.Kind != Kind(210) {
		t.Fatalf("LookupName = %+v, %v", got, ok)
	}
	if _, ok := Lookup(Kind(211)); ok {
		t.Fatal("Lookup found an unregistered kind")
	}
	if Kind(210).String() != "lookup-test" {
		t.Fatalf("Kind.String = %q", Kind(210))
	}
	if MaxKind() < Kind(210) {
		t.Fatalf("MaxKind = %v", MaxKind())
	}
	kinds := Kinds()
	for i := 1; i < len(kinds); i++ {
		if kinds[i] <= kinds[i-1] {
			t.Fatalf("Kinds not ascending: %v", kinds)
		}
	}
}

// TestNewDecUnknownKindErrors pins the corrupt-vs-newer-writer split:
// a kind beyond everything registered gets the upgrade hint, a gap
// inside the registered range reads as corruption.
func TestNewDecUnknownKindErrors(t *testing.T) {
	Register(Registration{
		Kind: Kind(230), Name: "gap-high",
		DecodeBinary: func(data []byte) (Synopsis, error) { return nil, nil },
	})
	_, _, err := NewDec(NewEnc(nil, Kind(229)).Bytes())
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("in-range unregistered kind: err = %v, want corrupt-container error", err)
	}
	_, _, err = NewDec(NewEnc(nil, Kind(4000)).Bytes())
	if err == nil || !strings.Contains(err.Error(), "upgrade") {
		t.Errorf("beyond-max kind: err = %v, want newer-writer upgrade error", err)
	}
}

func TestSectionHelpers(t *testing.T) {
	dom, err := geom.NewDomain(-1, -2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnc(nil, KindUniform)
	e.Domain(dom)
	d, _, err := NewDec(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Domain()
	if err != nil {
		t.Fatal(err)
	}
	if got != dom {
		t.Fatalf("domain round trip = %v, want %v", got, dom)
	}

	sums := []float64{0, 0, 0, 1} // 1x1 prefix table
	e2 := NewEnc(nil, KindUniform)
	e2.F64s(sums)
	d2, _, _ := NewDec(e2.Bytes())
	vs := d2.F64s(4)
	if len(vs) != 4 || vs[3] != 1 {
		t.Fatalf("F64s = %v", vs)
	}
}
