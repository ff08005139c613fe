package codec

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// This file is the module's only use of package unsafe (dplint's DPL006
// enforces that): the one place container bytes become a []float64
// without a copy.

// littleEndian reports whether the host stores float64s in the
// container's byte order, so section bytes can be read in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64s returns the little-endian float64s in b (len(b) a multiple of
// 8). On a little-endian host with b 8-byte aligned, the result
// aliases b: no copy, no allocation, and the caller's bytes must stay
// immutable and alive for as long as the slice is used. Big-endian
// hosts and misaligned bytes (a container buffer that does not start at
// an 8-byte address) get a decoded copy instead. Either way the values
// are bit-identical.
func f64s(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return []float64{}
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
