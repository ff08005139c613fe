// Package codec is the unsafeonly fixture: alias.go is the one file
// allowed to import unsafe.
package codec

import "unsafe"

func f64s(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}
