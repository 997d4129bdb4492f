package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanKind names a layer boundary the traced pipeline records.
type spanKind uint8

const (
	spanEvent spanKind = iota // one E-BGP event (or one cold trip), injection to quiescence
	spanRefresh
	spanEncode
	spanQueueWait
	spanDecode
	spanApply
	spanSink
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"event", "router.refresh", "codec.encode", "queue.wait", "codec.decode", "router.apply", "telemetry.sink",
}

// span is one interval at a layer boundary. parent is the index of the
// span that caused it (-1 for an event root); all spans of one E-BGP event
// carry its event id. Times are nanoseconds since the recorder started.
type span struct {
	kind       spanKind
	start, end int64
	parent     int32
	event      int32
}

// recorder keeps spans in memory; nothing is written until the pass ends.
// A nil recorder records nothing, which is how the same pipeline runs
// untraced for the overhead measurement.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(kind spanKind, parent, event int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{kind: kind, start: r.now(), parent: parent, event: event})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r != nil {
		r.spans[id].end = r.now()
	}
}

// add records a span whose start was taken earlier (a queue wait).
func (r *recorder) add(kind spanKind, start int64, parent, event int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{kind: kind, start: start, end: r.now(), parent: parent, event: event})
	return int32(len(r.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its interval
// its direct children cover. Children may nest, abut, overlap each other
// or stick out of the parent's interval (a queue wait outlives the encode
// that caused it); only the union of their intervals clipped to the parent
// is subtracted.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// kindTotals sums count, duration and self time per span kind.
type kindTotals struct {
	count      int
	total, own int64
}

func totalsByKind(spans []span) [numSpanKinds]kindTotals {
	var out [numSpanKinds]kindTotals
	self := selfTimes(spans)
	for i, s := range spans {
		k := &out[s.kind]
		k.count++
		k.total += s.end - s.start
		k.own += self[i]
	}
	return out
}

// maxSpansWritten caps the span file; the cold trip alone records over a
// million spans, and the aggregates above are computed from all of them.
const maxSpansWritten = 250_000

// writeSpans writes the pass's spans to <dir>/trace-<workload>.json as
// [kind, start_ns, end_ns, parent, event] rows.
func writeSpans(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	n := len(spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"spans_recorded\":%d,\"spans_written\":%d,\"kinds\":[", workload, len(spans), n)
	for i, name := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString("],\"columns\":[\"kind\",\"start_ns\",\"end_ns\",\"parent\",\"event\"],\"spans\":[\n")
	for i, s := range spans[:n] {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.kind, s.start, s.end, s.parent, s.event)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
