package msgsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// calendarDeltas are the push offsets (relative to the last popped time)
// the fuzzer draws from: the in-window delays of ordinary messages, the
// window's edges, far-future schedules like experiments.go's
// WithdrawAt(2000, ...) and a soak round's base+ev.At, and pushes before
// Now().
var calendarDeltas = []int64{0, 1, 1, 2, 3, 5, 10, 17, ringTicks - 1, ringTicks, ringTicks + 1, 2000, -1, -30, -5000}

// runCalendarOps interprets ops as a push/pop script against the calendar
// and a plain eventHeap, and requires the same event out of both on every
// pop, through to empty.
func runCalendarOps(t *testing.T, ops []byte) {
	t.Helper()
	var cal calendar
	var ref eventHeap
	var now int64
	seq := 0
	pop := func() {
		want := heap.Pop(&ref).(*event)
		if peeked := cal.peek(); peeked != want {
			t.Fatalf("peek: calendar (t=%d seq=%d), heap (t=%d seq=%d)", peeked.time, peeked.seq, want.time, want.seq)
		}
		if got := cal.pop(); got != want {
			t.Fatalf("pop: calendar (t=%d seq=%d), heap (t=%d seq=%d)", got.time, got.seq, want.time, want.seq)
		}
		now = want.time
	}
	for _, op := range ops {
		if op%4 == 0 {
			if len(ref) > 0 {
				pop()
			}
			continue
		}
		e := &event{time: now + calendarDeltas[int(op/4)%len(calendarDeltas)], seq: seq}
		seq++
		cal.push(e)
		heap.Push(&ref, e)
		if cal.len() != len(ref) {
			t.Fatalf("len: calendar %d, heap %d", cal.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if cal.len() != 0 || cal.peek() != nil || cal.pop() != nil {
		t.Fatal("calendar not empty after the heap drained")
	}
}

// FuzzCalendarMatchesHeap: the calendar pops in eventHeap.Less order for
// any interleaving of pushes and pops, including pushes before Now(),
// beyond the ring window, and into an empty ring.
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
	f.Fuzz(runCalendarOps)
}
