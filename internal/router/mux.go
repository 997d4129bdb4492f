package router

import (
	"sync/atomic"

	"repro/internal/wire"
)

// Mux fans one typed event stream out to several sinks, so a substrate can
// feed the trace renderer and a telemetry feed (or any other observer) from
// the same Router cores without the sinks stepping on each other. Sinks run
// synchronously in registration order on the emitting goroutine, exactly
// like a sink installed with Router.Events directly — a Mux adds no
// buffering and no goroutines.
//
// A Mux follows the same set-once-before-start contract as Router.Events:
// every Add/AddBatch must happen before the first Batch/DispatchBatch. The
// first delivery seals the sink list; a later Add panics instead of racing
// the running stream. Add and delivery must not run concurrently — wiring
// happens during single-threaded setup, which is what the seal enforces
// after the fact.
//
// # Batched dispatch
//
// A substrate whose emissions arrive in bursts — one simulator activation
// round, one speaker main-loop round — can buffer events with Batch and
// deliver the whole burst with one Flush. The ordering guarantee is that
// every sink observes the round's events in exactly the emission order;
// batching only moves WHEN a sink runs (end of round instead of
// mid-round), never reorders what it sees. Per-event sinks receive each
// event individually in order, then batch sinks (AddBatch) receive the
// round as one slice, amortising their per-call overhead.
//
// Because routers emit events whose Update field points at per-router
// scratch that is reused by the next activation, Batch deep-copies the
// Update payload into a pooled arena owned by the Mux; the arena is
// recycled on Flush. Events handed to sinks are therefore safe to read
// until the sink returns, same contract as unbatched dispatch, and the
// buffering adds no per-round allocations once the arena is warm.
//
// Batch/Flush are single-owner (the emitting goroutine), like the routers
// themselves. DispatchBatch is safe to call from multiple goroutines only
// when callers serialise externally (the TCP substrate dispatches under its
// observer lock).
type Mux struct {
	sinks      []func(Event)
	batchSinks []func([]Event)
	sealed     atomic.Bool

	// Batch buffer: buf holds the pending events with Update pointers
	// detached into updIdx (an index into the upds arena, -1 when nil),
	// because append growth moves both backing arrays and inter-slice
	// pointers would dangle. Flush reattaches them.
	buf    []Event
	updIdx []int32
	upds   []wire.Update
	nupd   int
}

// Add registers one more per-event sink (nil is ignored). It panics once
// events have started flowing: a sink installed mid-run would see a torn
// stream, and on the TCP substrate the registration itself would race the
// speaker goroutines.
func (m *Mux) Add(fn func(Event)) {
	if m.sealed.Load() {
		panic("router: Mux.Add after events started flowing; register sinks before the run starts")
	}
	if fn != nil {
		m.sinks = append(m.sinks, fn)
	}
}

// AddBatch registers a batch sink: it receives each delivery round as one
// slice, valid only until the sink returns (the backing storage is
// recycled). Same set-once-before-start contract as Add.
func (m *Mux) AddBatch(fn func([]Event)) {
	if m.sealed.Load() {
		panic("router: Mux.AddBatch after events started flowing; register sinks before the run starts")
	}
	if fn != nil {
		m.batchSinks = append(m.batchSinks, fn)
	}
}

// Len returns the number of registered sinks, per-event and batch.
func (m *Mux) Len() int { return len(m.sinks) + len(m.batchSinks) }

// seal closes the sink list on first delivery.
func (m *Mux) seal() {
	if !m.sealed.Load() {
		m.sealed.Store(true)
	}
}

// Batch buffers one event for a later Flush. The event's Update payload,
// if any, is deep-copied into the Mux's pooled arena, so the emitter may
// reuse its scratch immediately. The first call seals the Mux. With no
// sinks registered at all, Batch drops the event without buffering or
// copying — the seal has already closed the sink list, so nobody can ever
// arrive to observe it.
func (m *Mux) Batch(ev Event) {
	m.seal()
	if len(m.sinks) == 0 && len(m.batchSinks) == 0 {
		return
	}
	idx := int32(-1)
	if ev.Update != nil {
		idx = int32(m.copyUpdate(ev.Update))
		ev.Update = nil
	}
	m.buf = append(m.buf, ev)
	m.updIdx = append(m.updIdx, idx)
}

// copyUpdate copies *u into the next free arena slot, reusing its record
// storage, and returns the slot index.
func (m *Mux) copyUpdate(u *wire.Update) int {
	if m.nupd == len(m.upds) {
		m.upds = append(m.upds, wire.Update{})
	}
	slot := &m.upds[m.nupd]
	slot.Withdrawn = append(slot.Withdrawn[:0], u.Withdrawn...)
	slot.Announced = append(slot.Announced[:0], u.Announced...)
	m.nupd++
	return m.nupd - 1
}

// Flush delivers every buffered event: per-event sinks see them one by one
// in emission order, then batch sinks receive the whole round as a slice.
// The buffer and the Update arena are recycled for the next round. A Flush
// with nothing buffered is a no-op, so callers may flush unconditionally
// at the end of every round.
func (m *Mux) Flush() {
	if len(m.buf) == 0 {
		return
	}
	for i := range m.buf {
		if m.updIdx[i] >= 0 {
			m.buf[i].Update = &m.upds[m.updIdx[i]]
		}
	}
	m.deliver(m.buf)
	// Recycle. Drop the reattached pointers so stale events never alias
	// arena slots that the next round will overwrite.
	for i := range m.buf {
		m.buf[i] = Event{}
	}
	m.buf = m.buf[:0]
	m.updIdx = m.updIdx[:0]
	m.nupd = 0
}

// DispatchBatch delivers an externally assembled round of events with the
// same ordering guarantee as Flush: per-event sinks in order, then batch
// sinks once. The slice and its Updates are only read, never retained.
func (m *Mux) DispatchBatch(evs []Event) {
	m.seal()
	if len(evs) == 0 {
		return
	}
	m.deliver(evs)
}

// deliver runs the fan-out for one round.
func (m *Mux) deliver(evs []Event) {
	for _, fn := range m.sinks {
		for i := range evs {
			fn(evs[i])
		}
	}
	for _, fn := range m.batchSinks {
		fn(evs)
	}
}
