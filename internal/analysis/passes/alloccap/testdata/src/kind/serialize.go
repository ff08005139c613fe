// serialize.go carries kind's decode path: alloccap watches files with
// this name in every package.
package kind

import codec "internal/codec"

type payload struct {
	vals  []float64
	m1    int
	cells []int
}

func parse(d *codec.Dec) *payload {
	n := d.Int32()
	return &payload{vals: make([]float64, n)} // want `DPL005: make length n is wire-derived and unbounded`
}

func parseBounded(d *codec.Dec) []float64 {
	n := d.Len(8)
	return make([]float64, n)
}

// parseField: a product of struct fields passes the analyzer once an
// early-exit branch has inspected it. That is a syntactic proof only:
// p.m1 = 2^32 wraps p.m1*p.m1 to 0, so an empty p.cells passes this
// very guard. Real decoders bound each factor before the product (see
// grid.Fits).
func parseField(d *codec.Dec, p *payload) []int {
	_ = d.Int32()
	if len(p.cells) != p.m1*p.m1 {
		return nil
	}
	return make([]int, p.m1*p.m1)
}

func parseFieldBlind(d *codec.Dec, p *payload) []int {
	_ = d.Int32()
	return make([]int, p.m1*p.m1) // want `DPL005: make length p.m1\*p.m1 is wire-derived and unbounded`
}
