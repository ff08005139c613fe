package codec

import "unsafe" // want `DPL006: import of unsafe outside internal/codec/alias.go`

func size() uintptr { return unsafe.Sizeof(float64(0)) }
