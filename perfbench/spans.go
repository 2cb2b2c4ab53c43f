package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one benchmark-side span around a call into a layer. Times are
// host nanoseconds since the log was created.
type span struct {
	name       string
	start, end int64
	parent     int32  // index of the enclosing span, -1 at top level
	req        uint64 // request id shared by one request's spans
}

// maxSpans caps the in-memory log (about 48 MiB); later spans are
// counted but not kept.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the disabled log: every method is a no-op.
type spanLog struct {
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index (-1 when disabled or full).
func (l *spanLog) begin(name string, parent int32, req uint64) int32 {
	if l == nil {
		return -1
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.t0)), parent: parent, req: req})
	return int32(len(l.spans) - 1)
}

// end closes the span begin returned.
func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].end = int64(time.Since(l.t0))
}

// selfTimes returns, per span name, the count and the self time: each
// span's duration minus the part its child spans cover.
func (l *spanLog) selfTimes() map[string][2]int64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string][2]int64{}
	for i, s := range l.spans {
		e := out[s.name]
		e[0]++
		e[1] += s.end - s.start - child[i]
		out[s.name] = e
	}
	return out
}

// summary renders per-name span counts and self times.
func (l *spanLog) summary() []string {
	st := l.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("benchmark spans: %d kept, %d dropped (host self time per layer call)", len(l.spans), l.dropped)}
	for _, n := range names {
		e := st[n]
		lines = append(lines, fmt.Sprintf("  span %-28s n=%-8d self=%10.3f ms  mean=%8.3f us",
			n, e[0], float64(e[1])/1e6, float64(e[1])/float64(e[0])/1e3))
	}
	return lines
}

// writeJSONL writes one JSON object per span.
func (l *spanLog) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, s := range l.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			i, s.name, s.start, s.end, s.parent, s.req)
	}
	return bw.Flush()
}
