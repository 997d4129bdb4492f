// Package telemetry is the live monitoring plane of a soak run: a
// BMP-style feed (RFC 7854's model — a monitoring station subscribing to
// a router's route events without participating in routing) that turns the
// typed router.Event stream of either substrate into newline-delimited
// JSON for live subscribers, plus rolling aggregates (event totals,
// flap count, convergence-latency percentiles, msgs/sec) served over HTTP.
//
// The feed is strictly an observer. Its SinkBatch is installed alongside
// the trace renderer on the substrate's event multiplexer, so subscribing a
// telemetry client never changes what the routers do — and a feed with no
// subscribers skips JSON encoding entirely, keeping the soak's hot path
// allocation-free. Slow subscribers lose events (counted, never blocking):
// the routers must not be back-pressured by a stalled HTTP client.
package telemetry

import (
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
)

// latWindow is how many of the most recent convergence-latency samples the
// percentiles are computed over. A soak records one sample per round for
// as long as it runs, so the feed keeps a fixed ring: memory and the cost
// of Stats stay flat however long the run.
const latWindow = 4096

// subBuffer is each subscriber's channel depth; a subscriber that falls
// this far behind starts losing events (counted in Stats.Dropped).
const subBuffer = 256

// Feed fans the router event stream out to live subscribers and keeps the
// rolling aggregates. One Feed serves one soak run.
type Feed struct {
	start time.Time

	// nsub gates the encode path: SinkBatch pays for JSON only when someone
	// is listening.
	nsub    atomic.Int32
	events  atomic.Int64
	flaps   atomic.Int64
	streamd atomic.Int64
	dropped atomic.Int64

	mu       sync.Mutex
	subs     map[int]chan []byte
	nextID   int
	counters func() router.Snapshot
	lat      [latWindow]int64 // ring of the most recent samples
	latCount int              // samples ever recorded; next slot is latCount % latWindow
	latMax   int64            // maximum over every sample ever recorded
}

// NewFeed builds an empty feed; wire its SinkBatch into the substrate's event
// stream and (optionally) BindCounters / RecordConvergence into the soak
// config.
func NewFeed() *Feed {
	return &Feed{start: time.Now(), subs: map[int]chan []byte{}}
}

// eventRecord is the JSON shape of one streamed router event. Optional
// fields are pointers so irrelevant ones vanish from the encoding; counts
// are copied out of the wire message, which is never retained.
type eventRecord struct {
	Type      string `json:"type"`
	T         int64  `json:"t"`
	Kind      string `json:"kind"`
	Node      int    `json:"node"`
	Peer      *int   `json:"peer,omitempty"`
	Prefix    *int64 `json:"prefix,omitempty"`
	Path      *int64 `json:"path,omitempty"`
	OldBest   *int64 `json:"old,omitempty"`
	NewBest   *int64 `json:"new,omitempty"`
	Announced *int   `json:"announced,omitempty"`
	Withdrawn *int   `json:"withdrawn,omitempty"`
	ReadyAt   *int64 `json:"readyAt,omitempty"`
	Flushed   *int   `json:"flushed,omitempty"`
	Code      *int   `json:"code,omitempty"`
	Subcode   *int   `json:"subcode,omitempty"`
}

func iptr(v int) *int       { return &v }
func i64ptr(v int64) *int64 { return &v }

// record maps a typed router event onto its wire shape.
func record(ev router.Event) eventRecord {
	rec := eventRecord{Type: "event", T: ev.Time, Kind: ev.Kind.String(), Node: int(ev.Node)}
	switch ev.Kind {
	case router.BestChanged:
		rec.Prefix = i64ptr(int64(ev.Prefix))
		rec.OldBest = i64ptr(int64(ev.OldBest))
		rec.NewBest = i64ptr(int64(ev.NewBest))
	case router.UpdateSent, router.UpdateReceived:
		rec.Peer = iptr(int(ev.Peer))
		if ev.Update != nil {
			rec.Announced = iptr(len(ev.Update.Announced))
			rec.Withdrawn = iptr(len(ev.Update.Withdrawn))
		}
	case router.MRAIDeferred:
		rec.Peer = iptr(int(ev.Peer))
		rec.ReadyAt = i64ptr(ev.ReadyAt)
	case router.Injected, router.Withdrawn:
		rec.Prefix = i64ptr(int64(ev.Prefix))
		rec.Path = i64ptr(int64(ev.Path))
	case router.PeerDown:
		rec.Peer = iptr(int(ev.Peer))
		rec.Flushed = iptr(ev.Flushed)
	case router.PeerUp, router.FaultDrop, router.FaultDuplicate, router.FaultReorder:
		rec.Peer = iptr(int(ev.Peer))
	case router.FaultDelay:
		rec.Peer = iptr(int(ev.Peer))
		rec.ReadyAt = i64ptr(ev.ReadyAt)
	case router.NotificationReceived, router.BadFrame:
		rec.Peer = iptr(int(ev.Peer))
		rec.Code = iptr(int(ev.Code))
		rec.Subcode = iptr(int(ev.Subcode))
	case router.HoldExpired, router.ReopenFailed:
		rec.Peer = iptr(int(ev.Peer))
	case router.RouteLoop:
		rec.Peer = iptr(int(ev.Peer))
		rec.Prefix = i64ptr(int64(ev.Prefix))
		rec.Path = i64ptr(int64(ev.Path))
	}
	return rec
}

// SinkBatch consumes one dispatch round of router events. It is installed
// with AddBatch on the substrate's router.Mux next to the trace renderer,
// which flushes once per activation round. The aggregates are folded with
// two atomic adds per batch, so with no live subscriber a round costs only
// those; with subscribers the fan-out lock is taken once for the whole
// round. The slice is only read, never retained.
func (f *Feed) SinkBatch(evs []router.Event) {
	if len(evs) == 0 {
		return
	}
	flaps := 0
	for i := range evs {
		if evs[i].Kind == router.BestChanged {
			flaps++
		}
	}
	f.events.Add(int64(len(evs)))
	if flaps > 0 {
		f.flaps.Add(int64(flaps))
	}
	if f.nsub.Load() == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range evs {
		line, err := json.Marshal(record(evs[i]))
		if err != nil {
			continue
		}
		for _, ch := range f.subs {
			select {
			case ch <- line:
				f.streamd.Add(1)
			default:
				f.dropped.Add(1)
			}
		}
	}
}

// Subscribe registers a live event subscriber and returns its channel of
// encoded JSON lines plus a cancel that closes it. A subscriber that
// cannot keep up loses events rather than stalling the run.
func (f *Feed) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, subBuffer)
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.subs[id] = ch
	f.mu.Unlock()
	f.nsub.Add(1)
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			f.mu.Lock()
			delete(f.subs, id)
			f.mu.Unlock()
			f.nsub.Add(-1)
			close(ch)
		})
	}
}

// BindCounters installs the substrate's live counters getter. It has the
// signature churn.Config.BindCounters expects.
func (f *Feed) BindCounters(get func() router.Snapshot) {
	f.mu.Lock()
	f.counters = get
	f.mu.Unlock()
}

// RecordConvergence folds one post-burst convergence latency sample into
// the rolling aggregates. It has the signature churn.Config.Latency expects.
func (f *Feed) RecordConvergence(lat int64) {
	f.mu.Lock()
	f.lat[f.latCount%latWindow] = lat
	f.latCount++
	f.latMax = max(f.latMax, lat)
	f.mu.Unlock()
}

// Convergence summarises convergence-latency samples (substrate clock
// units). A soak report summarises every sample of the run; a Feed's
// Stats keeps Count and Max over every sample and the nearest-rank
// percentiles over the most recent latWindow of them.
type Convergence struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Stats is one aggregate snapshot of the feed.
type Stats struct {
	Type        string          `json:"type"`
	UptimeMS    int64           `json:"uptimeMs"`
	Events      int64           `json:"events"`
	Flaps       int64           `json:"flaps"`
	Streamed    int64           `json:"streamed"`
	Dropped     int64           `json:"dropped"`
	Subscribers int             `json:"subscribers"`
	MsgsPerSec  float64         `json:"msgsPerSec"`
	Counters    router.Snapshot `json:"counters"`
	Convergence Convergence     `json:"convergence"`
}

// Stats assembles the current aggregate snapshot.
func (f *Feed) Stats() Stats {
	st := Stats{
		Type:        "stats",
		UptimeMS:    time.Since(f.start).Milliseconds(),
		Events:      f.events.Load(),
		Flaps:       f.flaps.Load(),
		Streamed:    f.streamd.Load(),
		Dropped:     f.dropped.Load(),
		Subscribers: int(f.nsub.Load()),
	}
	f.mu.Lock()
	get := f.counters
	samples := slices.Clone(f.lat[:min(f.latCount, latWindow)])
	count, maxLat := f.latCount, f.latMax
	f.mu.Unlock()
	if get != nil {
		st.Counters = get()
		if secs := time.Since(f.start).Seconds(); secs > 0 {
			st.MsgsPerSec = float64(st.Counters.Sent) / secs
		}
	}
	st.Convergence = Summarize(samples)
	st.Convergence.Count, st.Convergence.Max = count, maxLat
	return st
}

// Summarize sorts samples in place and returns their count, maximum and
// nearest-rank P50 and P99: the P-th percentile of n samples is the
// ceil(P*n/100)-th smallest, so P99 of fewer than 100 samples is the
// maximum.
func Summarize(samples []int64) Convergence {
	st := Convergence{Count: len(samples)}
	if len(samples) == 0 {
		return st
	}
	slices.Sort(samples)
	rank := func(pct int) int64 { return samples[(pct*len(samples)+99)/100-1] }
	st.P50, st.P99, st.Max = rank(50), rank(99), samples[len(samples)-1]
	return st
}
