package datasets

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/dpgrid/dpgrid/internal/atof"
	"github.com/dpgrid/dpgrid/internal/geom"
)

// WriteCSV writes points as "x,y" records.
func WriteCSV(w io.Writer, points []geom.Point) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	rec := make([]string, 2)
	for _, p := range points {
		rec[0] = strconv.FormatFloat(p.X, 'g', -1, 64)
		rec[1] = strconv.FormatFloat(p.Y, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("datasets: write csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("datasets: write csv: %w", err)
	}
	return bw.Flush()
}

// ReadCSV reads "x,y" records into points. Records with a wrong field
// count or unparsable numbers produce an error identifying the line.
func ReadCSV(r io.Reader) ([]geom.Point, error) {
	var pts []geom.Point
	err := streamCSVChunks(r, func(chunk []geom.Point) error {
		pts = append(pts, chunk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// csvBlockSize is the size of one read block of the CSV parser. A
// block holds tens of thousands of lines, so the per-block handoff
// between goroutines is noise next to parsing it, and the blocks in
// flight (at most 2·GOMAXPROCS) stay a few MiB per CPU.
const csvBlockSize = 1 << 20

// csvBlock is one unit of the CSV pipeline: whole lines read from the
// input, and what a parse goroutine made of them.
type csvBlock struct {
	buf     []byte        // whole lines; only the input's last line may lack its '\n'
	readErr error         // the read error that ended the input after buf
	pts     []geom.Point  // the points of buf's lines, up to any bad line
	lines   int           // physical lines in buf, up to and including any bad line
	bad     []byte        // the first line that failed to parse, or nil
	parsed  chan struct{} // receives one value when the parse is done
}

// parseLines appends the points of data's lines to pts, up to the first
// bad line, and returns them with the number of physical lines read,
// that bad line included, and the bad line or nil. A plain "x,y" line
// takes one forward scan (scanPoint); every line scanPoint declines is
// cut at its newline and parsed by parsePointLine, the only source of
// errors.
func parseLines(data []byte, pts []geom.Point) (_ []geom.Point, lines int, bad []byte) {
	for len(data) > 0 {
		lines++
		if p, n, ok := scanPoint(data); ok {
			pts = append(pts, p)
			data = data[n:]
			continue
		}
		n := bytes.IndexByte(data, '\n') + 1
		if n == 0 {
			n = len(data)
		}
		line := data[:n]
		data = data[n:]
		p, ok, err := parsePointLine(line, lines)
		if err != nil {
			return pts, lines, line
		}
		if ok {
			pts = append(pts, p)
		}
	}
	return pts, lines, nil
}

// streamCSVChunks is the CSV block parser behind every CSV ingestion
// path: it parses "x,y" records and hands them to fn in file order, in
// chunks of at most geom.DefaultChunkSize points that are only valid
// until fn returns (the geom.PointSeq contract).
//
// It is a three-stage pipeline. One goroutine reads r sequentially into
// recycled blocks of about csvBlockSize bytes, each cut after its last
// newline, the partial line carrying into the next block.
// runtime.GOMAXPROCS(0) goroutines parse whole blocks concurrently.
// The calling goroutine takes the blocks back in file order and calls
// fn. At most 2·GOMAXPROCS blocks are in flight. When fn returns an
// error, or a line fails to parse, reading stops and the goroutines
// are drained before streamCSVChunks returns.
//
// The hot path reads a plain "x,y" line in one forward scan, parsing
// both numbers in place with atof.ParsePrefix — no per-record
// allocations and no search for the line's end, several times faster
// than encoding/csv. Every other line is split on its comma and its
// fields parsed with atof.ParseFloat; lines containing a quote
// character fall back to an encoding/csv parse of that line, so quoted
// records a csv.Writer could emit keep working. Blank lines are
// skipped, matching encoding/csv. Errors identify the 1-based physical
// line; the first error in file order wins, and a read error is
// reported only after every complete line before it has been
// delivered.
func streamCSVChunks(r io.Reader, fn func(chunk []geom.Point) error) error {
	parsers := runtime.GOMAXPROCS(0)
	// Every channel holds up to every block there is, so no send on one
	// ever blocks.
	inFlight := 2 * parsers
	free := make(chan *csvBlock, inFlight)
	for i := 0; i < inFlight; i++ {
		free <- &csvBlock{parsed: make(chan struct{}, 1)}
	}
	order := make(chan *csvBlock, inFlight)
	work := make(chan *csvBlock, inFlight)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(parsers + 1)
	go func() {
		defer wg.Done()
		readCSVBlocks(r, free, stop, order, work)
	}()
	for i := 0; i < parsers; i++ {
		go func() {
			defer wg.Done()
			for b := range work {
				// A bad line stops the block; the in-order consumer parses
				// it again with its absolute line number for the error.
				b.pts, b.lines, b.bad = parseLines(b.buf, b.pts[:0])
				b.parsed <- struct{}{}
			}
		}()
	}
	// Stop the reader and wait out every goroutine, also when fn panics.
	defer func() {
		close(stop)
		for b := range order {
			<-b.parsed
		}
		wg.Wait()
	}()

	line := 0 // physical lines before the current block
	for b := range order {
		<-b.parsed
		for pts := b.pts; len(pts) > 0; {
			n := min(len(pts), geom.DefaultChunkSize)
			if err := fn(pts[:n:n]); err != nil {
				return err
			}
			pts = pts[n:]
		}
		if b.bad != nil {
			_, _, err := parsePointLine(b.bad, line+b.lines)
			return err
		}
		line += b.lines
		if b.readErr != nil {
			return fmt.Errorf("datasets: read csv line %d: %w", line+1, b.readErr)
		}
		free <- b
	}
	return nil
}

// readCSVBlocks fills blocks taken from free with whole lines of r and
// sends each to order and to work, in file order, until r ends, fails,
// or stop is closed. It then closes order and work.
func readCSVBlocks(r io.Reader, free <-chan *csvBlock, stop <-chan struct{}, order, work chan<- *csvBlock) {
	defer close(work)
	defer close(order)
	var carry []byte // the partial last line of the previous block
	for {
		var b *csvBlock
		select {
		case b = <-free:
		case <-stop:
			return
		}
		buf := append(b.buf[:0], carry...)
		if cap(buf) < csvBlockSize {
			buf = slices.Grow(buf, csvBlockSize-len(buf))
		}
		var err error
		for empty := 0; err == nil; {
			if len(buf) == cap(buf) {
				if bytes.LastIndexByte(buf, '\n') >= 0 {
					break
				}
				buf = slices.Grow(buf, csvBlockSize) // a line longer than the block
			}
			var n int
			n, err = r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if n > 0 || err != nil {
				empty = 0
			} else if empty++; empty == 100 {
				err = io.ErrNoProgress // what bufio reports for a stuck reader
			}
		}
		if err == io.EOF {
			if len(buf) > 0 {
				b.buf, b.readErr = buf, nil
				order <- b
				work <- b
			}
			return
		}
		cut := bytes.LastIndexByte(buf, '\n') + 1
		b.buf, b.readErr = buf[:cut], err
		carry = append(carry[:0], buf[cut:]...)
		order <- b
		work <- b
		if err != nil {
			return
		}
	}
}

// scanPoint parses the line at the start of data in one forward scan
// when it is two plain decimals that atof.ParsePrefix converts, split by
// a comma and ended by '\n', "\r\n" or the end of data. It returns the
// point and the bytes of the line it spans, newline included. ok is
// false for every other line, which parsePointLine then handles: the
// point scanPoint returns is the one parsePointLine would, since such a
// line has one comma and no quote, and atof.ParseFloat converts each
// field just as atof.ParsePrefix does.
func scanPoint(data []byte) (p geom.Point, n int, ok bool) {
	x, i, ok := atof.ParsePrefix(data)
	if !ok || i == len(data) || data[i] != ',' {
		return geom.Point{}, 0, false
	}
	i++
	y, j, ok := atof.ParsePrefix(data[i:])
	if !ok {
		return geom.Point{}, 0, false
	}
	i += j
	switch {
	case i == len(data):
	case data[i] == '\n':
		i++
	case data[i] == '\r' && i+1 < len(data) && data[i+1] == '\n':
		i += 2
	default:
		return geom.Point{}, 0, false
	}
	return geom.Point{X: x, Y: y}, i, true
}

// parsePointLine parses one physical line (including any trailing
// newline) into a point. ok is false for blank lines, which are
// skipped without error.
func parsePointLine(data []byte, line int) (p geom.Point, ok bool, err error) {
	if n := len(data); n > 0 && data[n-1] == '\n' {
		data = data[:n-1]
	}
	if n := len(data); n > 0 && data[n-1] == '\r' {
		data = data[:n-1]
	}
	if len(data) == 0 {
		return geom.Point{}, false, nil
	}
	if bytes.IndexByte(data, '"') >= 0 {
		return parseQuotedLine(data, line)
	}
	i := bytes.IndexByte(data, ',')
	if i < 0 || bytes.IndexByte(data[i+1:], ',') >= 0 {
		return geom.Point{}, false, fmt.Errorf("datasets: read csv line %d: want 2 fields", line)
	}
	return parsePointFields(data[:i], data[i+1:], line)
}

// parseQuotedLine handles the rare record containing a quote character
// with full encoding/csv semantics.
func parseQuotedLine(data []byte, line int) (geom.Point, bool, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = 2
	rec, err := cr.Read()
	if err != nil {
		return geom.Point{}, false, fmt.Errorf("datasets: read csv line %d: %w", line, err)
	}
	return parsePointFields([]byte(rec[0]), []byte(rec[1]), line)
}

// parsePointFields parses the two fields of a record. atof.ParseFloat
// reads them in place, so a plain decimal line allocates nothing.
func parsePointFields(xs, ys []byte, line int) (geom.Point, bool, error) {
	x, err := atof.ParseFloat(xs)
	if err != nil {
		return geom.Point{}, false, fmt.Errorf("datasets: read csv line %d: bad x %q", line, xs)
	}
	y, err := atof.ParseFloat(ys)
	if err != nil {
		return geom.Point{}, false, fmt.Errorf("datasets: read csv line %d: bad y %q", line, ys)
	}
	return geom.Point{X: x, Y: y}, true, nil
}
