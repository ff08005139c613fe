package codec

import (
	"fmt"
	"sort"
	"sync"

	"github.com/dpgrid/dpgrid/internal/geom"
)

// The kind registry is the dispatch table every serialization layer
// shares. Each synopsis package registers its kind once (in an init
// function, next to the codecs themselves); the container layer
// (NewDec's known-kind check), the root package's loader, sharded-
// manifest embedding, and dpserve loading all consult the same table.
// Adding an estimator is one Registration plus a body codec — no switch
// statement anywhere else grows a case.

// Synopsis is the minimal query interface every registered decoder
// returns. It mirrors the root package's Synopsis interface, so decoded
// values flow to callers without conversion.
type Synopsis interface {
	// Query estimates the number of data points in r.
	Query(r geom.Rect) float64
}

// Kinder is implemented by synopses that can report the container kind
// they serialize as. Serving layers use it to expose which estimator
// backs a loaded synopsis.
type Kinder interface {
	ContainerKind() Kind
}

// Registration describes one synopsis kind: its identity (container
// kind, short name, JSON format tag) and its decoder. DecodeBinary
// receives the complete container, header included, and must validate
// every structural invariant.
type Registration struct {
	// Kind is the container kind tag. Required, nonzero, unique.
	Kind Kind
	// Name is the short stable kind name (e.g. "uniform-grid"), unique;
	// Kind.String and operator-facing surfaces render it.
	Name string
	// JSONFormat is the envelope format tag of the kind's write-only
	// JSON dump (e.g. "dpgrid/uniform-grid"); a sharded manifest's dump
	// names its tile kind by it.
	JSONFormat string
	// DecodeBinary deserializes a dpgridv2 container of this kind.
	// Float sections decode through Dec.F64s, so the result may alias
	// data: callers keep data immutable and alive for the synopsis's
	// lifetime. Required.
	DecodeBinary func(data []byte) (Synopsis, error)
	// Tile marks kinds that may be embedded as the tiles of a sharded
	// manifest. The manifest kind itself leaves it false, which is what
	// rules out nested sharding.
	Tile bool
}

// registry holds the registered kinds. Registration happens in package
// init functions; lookups happen on every decode, so reads take the
// shared lock.
var registry struct {
	mu      sync.RWMutex
	byKind  map[Kind]Registration
	byName  map[string]Kind
	maxKind Kind
}

// Register adds a kind to the registry, panicking on any identity
// collision — kinds are compile-time decisions, so a duplicate is a
// programming error the process should fail loudly on.
func Register(r Registration) {
	if r.Kind == KindInvalid {
		panic("codec: Register: kind must be nonzero")
	}
	if r.Name == "" {
		panic("codec: Register: name must be set")
	}
	if r.DecodeBinary == nil {
		panic(fmt.Sprintf("codec: Register(%s): DecodeBinary must be set", r.Name))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byKind == nil {
		registry.byKind = make(map[Kind]Registration)
		registry.byName = make(map[string]Kind)
	}
	if prev, dup := registry.byKind[r.Kind]; dup {
		panic(fmt.Sprintf("codec: Register(%s): kind %d already registered as %q", r.Name, uint16(r.Kind), prev.Name))
	}
	if _, dup := registry.byName[r.Name]; dup {
		panic(fmt.Sprintf("codec: Register: duplicate kind name %q", r.Name))
	}
	registry.byKind[r.Kind] = r
	registry.byName[r.Name] = r.Kind
	if r.Kind > registry.maxKind {
		registry.maxKind = r.Kind
	}
}

// Lookup returns the registration for a container kind.
func Lookup(k Kind) (Registration, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	r, ok := registry.byKind[k]
	return r, ok
}

// LookupName returns the registration with the given short name.
func LookupName(name string) (Registration, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	k, ok := registry.byName[name]
	if !ok {
		return Registration{}, false
	}
	return registry.byKind[k], true
}

// MaxKind returns the largest registered kind — the boundary NewDec
// uses to tell a corrupt kind field from a file written by a newer
// dpgrid release.
func MaxKind() Kind {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.maxKind
}

// Kinds returns every registered kind in ascending order.
func Kinds() []Kind {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Kind, 0, len(registry.byKind))
	for k := range registry.byKind {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kindName returns the registered name of k, or "" when unregistered.
func kindName(k Kind) string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byKind[k].Name
}
