package main

import (
	"encoding/json"
	"sync"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the run started; Parent indexes the enclosing
// layer's span; Req is the benchmark-issued request ID the call served
// (-1 for calls that cover a whole stream); Items counts the units of
// work inside (rects, requests, points).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Items  int    `json:"items"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return noParent
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id, recording the work items it covered.
func (t *tracer) end(id, items int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Items = items
}

// add records an already-measured span, for layers the benchmark timed
// in a separate execution (see layerSelf).
func (t *tracer) add(name string, parent int, req int64, d time.Duration, items int) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: end - d.Nanoseconds(), End: end, Parent: parent, Req: req, Items: items})
	return len(t.spans) - 1
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes returns, per span name, the total duration and the self
// time: each span's duration minus what its children cover. A child
// measured in a separate execution of the same work (the ladder and the
// ingest steps run each layer on its own) covers its own duration, so
// the parent's self time is the difference between the two layers.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noParent {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Spans++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.End-s.Start-child[i]) / 1e9
		out[s.Name] = lt
	}
	return out
}

// traceFile is what a traced run writes at its end.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Layers   map[string]layerTime `json:"layers"`
	Ladder   []ladderRung         `json:"ladder_us_per_request"`
	Spans    []span               `json:"spans"`
}

// ladderRung is one rung of the serving ladder: the mean time per
// request at that depth of the stack on one rect stream, and the step
// from the rung below, which is that layer's own cost.
type ladderRung struct {
	Rung  string  `json:"rung"`
	Layer string  `json:"layer"`
	US    float64 `json:"us"`
	StepU float64 `json:"step_us"`
}

func (t *tracer) marshal(workload string, seed int64, ladder []ladderRung) ([]byte, error) {
	layers := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.MarshalIndent(traceFile{Workload: workload, Seed: seed, Layers: layers, Ladder: ladder, Spans: t.spans}, "", " ")
}
