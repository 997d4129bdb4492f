package msgsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// calendarDeltas are the push offsets (relative to the last popped time)
// the fuzzer draws from: the in-window delays of ordinary messages, the
// window's edges, far-future schedules like experiments.go's
// WithdrawAt(2000, ...) and a soak round's base+ev.At, and pushes before
// Now().
var calendarDeltas = []int64{0, 1, 1, 2, 3, 5, 10, 17, ringTicks - 1, ringTicks, ringTicks + 1, 2000, -1, -30, -5000}

// calendarPayload returns the bytes pushed with the seq-th event: a size
// drawn by class — none, message-sized, or large: a few hundred bytes, so
// byte pages fill and leave tails unused, and every eighth one within 64
// bytes either side of a whole page, which must overflow to the heap —
// filled with a pattern unique to seq, so a pop that returns another
// event's bytes, or bytes a later push overwrote, cannot match.
func calendarPayload(seq int64, class byte) []byte {
	var n int
	switch {
	case class == 1:
		return nil
	case class == 2:
		n = 8 + int(seq%120)
	case seq%8 == 0:
		n = pageBytes - 64 + int(seq%128)
	default:
		n = 200 + int(seq*397%1000)
	}
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seq>>(8*(i%8))) ^ byte(i*31)
	}
	return p
}

const maxCalendarOps = 2048

// queued is the oracle's copy of one pushed event.
type queued struct {
	time, seq int64
	payload   []byte
}

// runCalendarOps interprets ops as a push/pop script against the calendar
// and an independent oracle — the pending events in a plain slice, popped
// by a linear scan for the least (time, seq) — and requires the same
// event, with exactly the bytes pushed with it, out of both on every pop,
// through to empty. A popped payload must also survive later pops until
// the next push. Scripts are cut at maxCalendarOps, which keeps the
// oracle's quadratic scan cheap for whatever the fuzzer grows.
func runCalendarOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) > maxCalendarOps {
		ops = ops[:maxCalendarOps]
	}
	var cal calendar
	var ref []queued
	var now, seq int64
	var last, lastWant []byte // the latest popped payload, while no push followed
	pop := func() {
		m := 0
		for i := range ref {
			if ref[i].time < ref[m].time || (ref[i].time == ref[m].time && ref[i].seq < ref[m].seq) {
				m = i
			}
		}
		want := ref[m]
		ref[m] = ref[len(ref)-1]
		ref = ref[:len(ref)-1]
		if peeked := cal.peek(); peeked == nil || peeked.time != want.time || peeked.seq != want.seq {
			t.Fatalf("peek: calendar %+v, oracle (t=%d seq=%d)", peeked, want.time, want.seq)
		}
		got, payload, ok := cal.pop()
		if !ok || got.time != want.time || got.seq != want.seq {
			t.Fatalf("pop: calendar (t=%d seq=%d ok=%v), oracle (t=%d seq=%d)", got.time, got.seq, ok, want.time, want.seq)
		}
		if !bytes.Equal(payload, want.payload) {
			t.Fatalf("pop (t=%d seq=%d): payload of %d bytes differs from the %d pushed", got.time, got.seq, len(payload), len(want.payload))
		}
		if last != nil && !bytes.Equal(last, lastWant) {
			t.Fatalf("pop (t=%d seq=%d): the previous pop's payload changed before any push", got.time, got.seq)
		}
		last, lastWant = payload, want.payload
		now = want.time
	}
	for _, op := range ops {
		if op%4 == 0 {
			if len(ref) > 0 {
				pop()
			}
			continue
		}
		e := event{time: now + calendarDeltas[int(op/4)%len(calendarDeltas)], seq: seq}
		payload := calendarPayload(seq, op%4)
		seq++
		cal.push(e, payload)
		ref = append(ref, queued{e.time, e.seq, payload})
		last, lastWant = nil, nil
		if cal.len() != len(ref) {
			t.Fatalf("len: calendar %d, oracle %d", cal.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if _, _, ok := cal.pop(); cal.len() != 0 || cal.peek() != nil || ok {
		t.Fatal("calendar not empty after the oracle drained")
	}
}

// op encodings for hand-written scripts: a push at calendarDeltas[d] with
// payload class c (1 none, 2 message-sized, 3 large), or a pop.
func pushOp(d int, c byte) byte { return byte(d*4) + c }

const popOp = 0

// repeatOps returns n copies of op.
func repeatOps(op byte, n int) []byte { return bytes.Repeat([]byte{op}, n) }

// FuzzCalendarMatchesHeap: the calendar pops in (time, seq) order, each
// event with exactly its own bytes, for any interleaving of pushes and
// pops — including pushes before Now(), beyond the ring window, into an
// empty ring, with delay 0 into the bucket being drained, across ring
// wrap-around and into pages recycled from drained buckets.
func FuzzCalendarMatchesHeap(f *testing.F) {
	f.Add([]byte{1, 5, 9, 0, 0, 0})
	f.Add([]byte{45, 0, 1, 0, 49, 53, 0, 0})     // far future, then pushes into the past
	f.Add([]byte{33, 37, 41, 0, 33, 0, 0, 0, 1}) // the window's edges
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 400)
		rng.Read(ops)
		f.Add(ops)
	}
	// Delay 0 into the bucket being drained: more than a page of events
	// queued at one tick, then each pop followed by a same-tick push, so
	// the bucket grows at its tail while its head pages are consumed and
	// released.
	drain := append(repeatOps(pushOp(1, 2), pageEvents+5), popOp)
	for i := 0; i < 2*pageEvents; i++ {
		drain = append(drain, pushOp(0, byte(2+i%2)), popOp)
	}
	f.Add(drain)
	// Ring wrap-around: the clock walks several windows forward in steps
	// of 17, each step leaving work in the bucket 63 ticks ahead.
	var wrap []byte
	for i := 0; i < 5*ringTicks; i++ {
		wrap = append(wrap, pushOp(7, 2), pushOp(8, 2), popOp)
	}
	f.Add(wrap)
	// Far future and the past around a busy window: 2000 ticks ahead and
	// 30 / 5000 behind, interleaved with in-window traffic.
	var far []byte
	for i := 0; i < pageEvents+20; i++ {
		far = append(far, pushOp(11, 2), pushOp(3, 2), pushOp(13, 3), popOp, pushOp(14, 1), pushOp(12, 2), popOp)
	}
	f.Add(far)
	// Page reuse: fill several byte pages and more than a page of events
	// in one bucket, drain it, and fill the next buckets from the
	// recycled pages.
	var reuse []byte
	for round := 0; round < 3; round++ {
		reuse = append(reuse, repeatOps(pushOp(1+round%3, 3), 20)...)
		reuse = append(reuse, repeatOps(pushOp(1+round%3, 2), pageEvents+3)...)
		reuse = append(reuse, repeatOps(popOp, pageEvents+23)...)
	}
	f.Add(reuse)
	f.Fuzz(runCalendarOps)
}

// TestCalendarRetainsPeakPages is the retention guard: a wave of load
// moves through every bucket of the ring — each tick's bucket is filled,
// then drained while the next one fills — and the calendar must end up
// holding no more pages of either kind than were ever live at once, plus
// one. A design that gives each bucket its own growable storage would
// keep every bucket's own peak instead: here about ringTicks/2 times as
// much.
func TestCalendarRetainsPeakPages(t *testing.T) {
	const perTick = 5*pageEvents + 7
	var cal calendar
	live := func() (events, bytes int) {
		for _, b := range cal.ring {
			for _, p := range b.events {
				if p != nil {
					events++
				}
			}
			for _, p := range b.bytes {
				if p != nil {
					bytes++
				}
			}
		}
		return events, bytes
	}
	var peakEvents, peakBytes, bucketPeaks int
	var seq int64
	payload := make([]byte, 400)
	for tick := int64(0); tick < 4*ringTicks; tick++ {
		for i := 0; i < perTick; i++ {
			cal.push(event{time: tick + 1, seq: seq}, payload[:int(seq*61%400)])
			seq++
		}
		// Pushes only take pages and pops only release them, so the live
		// count peaks here.
		ev, by := live()
		peakEvents, peakBytes = max(peakEvents, ev), max(peakBytes, by)
		if tick < ringTicks {
			b := &cal.ring[(tick+1)&(ringTicks-1)]
			bucketPeaks += len(b.events) + len(b.bytes)
		}
		for e := cal.peek(); e != nil && e.time <= tick; e = cal.peek() {
			cal.pop()
		}
		ev, by = live()
		if held := ev + len(cal.freeEvents); held > peakEvents+1 {
			t.Fatalf("tick %d: the calendar holds %d event pages, but at most %d were ever live at once", tick, held, peakEvents)
		}
		if held := by + len(cal.freeBytes); held > peakBytes+1 {
			t.Fatalf("tick %d: the calendar holds %d byte pages, but at most %d were ever live at once", tick, held, peakBytes)
		}
	}
	if bucketPeaks < 10*(peakEvents+peakBytes) {
		t.Fatalf("vacuous wave: per-bucket peaks sum to %d pages against a global peak of %d", bucketPeaks, peakEvents+peakBytes)
	}
}

// TestCalendarReleasesSpentPages: a page returns to its pool as soon as
// the bucket's read position passes it, not when the bucket drains, and a
// drained bucket gives back every page it took.
func TestCalendarReleasesSpentPages(t *testing.T) {
	const size = 1000 // eight payloads to a byte page
	var cal calendar
	payload := make([]byte, size)
	for i := 0; i < 3*pageEvents; i++ {
		cal.push(event{time: 5, seq: int64(i)}, payload)
	}
	b := &cal.ring[5]
	eventPages, bytePages := len(b.events), len(b.bytes)
	for i := 0; i <= pageEvents; i++ {
		cal.pop()
	}
	// The last pop read event pageEvents, whose payload sits on byte page
	// pageEvents/8: the first event page and every byte page before that
	// one are spent.
	if got := len(cal.freeEvents); got != 1 {
		t.Errorf("%d event pages released after a page of events was read, want 1", got)
	}
	if got, want := len(cal.freeBytes), pageEvents/(pageBytes/size); got != want {
		t.Errorf("%d byte pages released, want %d", got, want)
	}
	for cal.len() > 0 {
		cal.pop()
	}
	if len(cal.freeEvents) != eventPages || len(cal.freeBytes) != bytePages {
		t.Errorf("drained bucket returned %d event and %d byte pages, it took %d and %d",
			len(cal.freeEvents), len(cal.freeBytes), eventPages, bytePages)
	}
}

// TestEventIsPointerFree pins what makes in-flight messages free for the
// garbage collector and compact in memory: neither an event nor a page of
// events or payload bytes holds a pointer, an event fits in 56 bytes, and
// a page fits the 8 KiB allocator size class.
func TestEventIsPointerFree(t *testing.T) {
	for _, v := range []any{event{}, eventPage{}, bytePage{}} {
		typ := reflect.TypeOf(v)
		if path := pointerIn(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
	if n := unsafe.Sizeof(event{}); n > 56 {
		t.Errorf("event is %d bytes, want <= 56", n)
	}
	if n := unsafe.Sizeof(eventPage{}); n > pageBytes {
		t.Errorf("an event page is %d bytes, want <= %d", n, pageBytes)
	}
}

// pointerIn returns the path to the first pointer-carrying field of typ,
// or "" if it has none.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default: // pointer, slice, map, chan, func, interface, string, unsafe.Pointer
		return path + " (" + typ.Kind().String() + ")"
	}
}
