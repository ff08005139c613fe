package main

import (
	"fmt"
	"sort"
	"sync"

	"github.com/dpgrid/dpgrid"
)

// registry is a concurrent-safe named collection of released synopses.
// Reads (query traffic) take the shared lock; loading a synopsis takes
// the exclusive lock only to swap the map entry — the deserialization
// work happens outside the critical section. Synopses themselves are
// immutable once built, so handing the same Synopsis to many
// goroutines is safe.
//
// Every put stamps the entry with a process-unique, monotonically
// increasing generation. The generation is what lets the answer cache
// key on (name, gen): replacing or retiring a synopsis moves the name
// to a generation no cached entry carries, so a stale answer can never
// be served across a swap — even by a query that was already in flight
// when the swap happened.
type registry struct {
	mu      sync.RWMutex
	syns    map[string]regEntry
	nextGen uint64
}

// regEntry is one registered synopsis. syn is what queries run
// against: for a memory-mapped load it is the decoded synopsis
// (MappedSynopsis.Unwrap), so every handler sees the real type — its
// metadata, its shard routing — and mapped keeps the mapping's owner
// only for the dpserve_mapped_bytes gauge.
type regEntry struct {
	syn    dpgrid.Synopsis
	mapped *dpgrid.MappedSynopsis // nil unless loaded with -mmap
	gen    uint64
}

func newRegistry() *registry {
	return &registry{syns: make(map[string]regEntry)}
}

// get returns the synopsis registered under name and its registration
// generation.
func (r *registry) get(name string) (dpgrid.Synopsis, uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.syns[name]
	return e.syn, e.gen, ok
}

// put registers s under name with a fresh generation, replacing any
// previous synopsis. A *dpgrid.MappedSynopsis is registered as its
// decoded synopsis, with the mapping kept alongside (see regEntry).
func (r *registry) put(name string, s dpgrid.Synopsis) {
	e := regEntry{syn: s}
	if m, ok := s.(*dpgrid.MappedSynopsis); ok {
		e.syn, e.mapped = m.Unwrap(), m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextGen++
	e.gen = r.nextGen
	r.syns[name] = e
}

// remove unregisters name, reporting whether it was present. In-flight
// queries holding the old synopsis finish against it safely (synopses
// are immutable); only new lookups miss.
func (r *registry) remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.syns[name]
	delete(r.syns, name)
	return ok
}

// count returns the number of registered synopses.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.syns)
}

// names returns the registered names in sorted order.
func (r *registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.syns))
	for name := range r.syns {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// loadFile loads the synopsis file at path and registers it under name.
// The file is fully validated and decoded at load; a binary release's
// tables (and its shards') alias the file bytes.
// mmap only picks where those bytes live: in a memory mapping
// (dpgrid.MapSynopsisFile), where the kernel page cache holds the float
// payload, or read onto the heap (dpgrid.LoadSynopsisFile). Mapped
// synopses are never explicitly closed — replacement or retirement just
// drops the registry reference, because an in-flight query reading
// mapped bytes at unmap time would fault; the mapping lives until
// process exit, which for a serving daemon is the correct lifetime.
func (r *registry) loadFile(name, path string, mmap bool) error {
	var s dpgrid.Synopsis
	var err error
	if mmap {
		s, err = dpgrid.MapSynopsisFile(path)
	} else {
		s, err = dpgrid.LoadSynopsisFile(path)
	}
	if err != nil {
		return fmt.Errorf("load %q from %s: %w", name, path, err)
	}
	r.put(name, s)
	return nil
}

// mappedBytes sums the memory-mapped image sizes across registered
// synopses — the scrape-time value of the dpserve_mapped_bytes gauge.
// The sum is int64 over a sorted-irrelevant map walk: integer addition
// commutes exactly, so iteration order cannot change the reported
// value.
func (r *registry) mappedBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, e := range r.syns {
		if e.mapped != nil {
			total += e.mapped.MappedBytes()
		}
	}
	return total
}
