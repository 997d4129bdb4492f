package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/wire"
)

func TestFeedCountsWithoutSubscribers(t *testing.T) {
	f := NewFeed()
	f.BindCounters(func() router.Snapshot { return router.Snapshot{Sent: 42, Received: 40, Rejected: 2} })
	f.SinkBatch([]router.Event{{Kind: router.BestChanged, Node: 3, OldBest: 1, NewBest: 2}})
	f.SinkBatch([]router.Event{{Kind: router.UpdateSent, Node: 3, Peer: 4}})
	f.RecordConvergence(10)
	f.RecordConvergence(30)
	f.RecordConvergence(20)

	st := f.Stats()
	if st.Events != 2 || st.Flaps != 1 {
		t.Fatalf("events %d flaps %d, want 2/1", st.Events, st.Flaps)
	}
	if st.Streamed != 0 || st.Dropped != 0 || st.Subscribers != 0 {
		t.Fatalf("no-subscriber feed streamed %d dropped %d subs %d", st.Streamed, st.Dropped, st.Subscribers)
	}
	if st.Counters.Sent != 42 {
		t.Fatalf("bound counters not served: %+v", st.Counters)
	}
	if c := st.Convergence; c.Count != 3 || c.P50 != 20 || c.Max != 30 {
		t.Fatalf("convergence %+v, want count 3 p50 20 max 30", c)
	}
}

// TestConvergenceSamplesBounded: a long soak records a sample per round
// forever, so neither recording nor Stats may grow with the run. Count and
// Max still cover every sample; the percentiles cover the latest window.
func TestConvergenceSamplesBounded(t *testing.T) {
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	f := NewFeed()
	f.RecordConvergence(1 << 40) // the run's maximum, long since out of the window
	for i := 1; i < latWindow; i++ {
		f.RecordConvergence(7)
	}
	statsAtWindow := allocated(func() { f.Stats() })

	const total = 100_000
	recording := allocated(func() {
		for i := latWindow; i < total; i++ {
			f.RecordConvergence(int64(i % 100))
		}
	})
	if recording > 16<<10 {
		t.Errorf("recording %d samples allocated %d bytes; the ring must not grow", total-latWindow, recording)
	}
	var st Stats
	statsAtTotal := allocated(func() { st = f.Stats() })
	if statsAtTotal > statsAtWindow+4<<10 {
		t.Errorf("Stats allocated %d bytes at %d samples, %d at %d: cost grows with the run",
			statsAtTotal, total, statsAtWindow, latWindow)
	}
	// The window holds i%100 for the last 4096 values of i: residues 0-3
	// forty times, 4-99 forty-one times, so the ranks read off that scale.
	if c := st.Convergence; c.Count != total || c.Max != 1<<40 || c.P50 != 50 || c.P99 != 98 {
		t.Errorf("convergence %+v, want count %d max %d p50 50 p99 98", c, total, int64(1)<<40)
	}
}

func TestSubscribeStreamAndRecordShapes(t *testing.T) {
	f := NewFeed()
	ch, cancel := f.Subscribe()
	defer cancel()

	f.SinkBatch([]router.Event{{Kind: router.Injected, Time: 7, Node: 2, Prefix: 1, Path: 3}})
	f.SinkBatch([]router.Event{{
		Kind: router.UpdateReceived, Time: 9, Node: 2, Peer: 5,
		Update: &wire.Update{Announced: make([]wire.RouteRecord, 2), Withdrawn: make([]wire.WithdrawnRoute, 1)},
	}})
	f.SinkBatch([]router.Event{{Kind: router.PeerDown, Time: 11, Node: 0, Peer: 1, Flushed: 6}})

	var recs []map[string]any
	for i := 0; i < 3; i++ {
		select {
		case line := <-ch:
			var m map[string]any
			if err := json.Unmarshal(line, &m); err != nil {
				t.Fatalf("bad JSON line %q: %v", line, err)
			}
			recs = append(recs, m)
		case <-time.After(time.Second):
			t.Fatal("subscriber starved")
		}
	}
	if recs[0]["kind"] != "Injected" || recs[0]["prefix"] != float64(1) || recs[0]["path"] != float64(3) {
		t.Fatalf("Injected record %v", recs[0])
	}
	if recs[1]["kind"] != "UpdateReceived" || recs[1]["announced"] != float64(2) || recs[1]["withdrawn"] != float64(1) {
		t.Fatalf("UpdateReceived record %v", recs[1])
	}
	if _, has := recs[1]["flushed"]; has {
		t.Fatalf("UpdateReceived carries flushed: %v", recs[1])
	}
	if recs[2]["kind"] != "PeerDown" || recs[2]["flushed"] != float64(6) {
		t.Fatalf("PeerDown record %v", recs[2])
	}
	if st := f.Stats(); st.Streamed != 3 || st.Subscribers != 1 {
		t.Fatalf("streamed %d subs %d, want 3/1", st.Streamed, st.Subscribers)
	}
}

// TestSlowSubscriberDropsNotBlocks: a stalled subscriber loses events past
// its buffer instead of back-pressuring the router event path.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	f := NewFeed()
	_, cancel := f.Subscribe()
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < subBuffer+50; i++ {
			f.SinkBatch([]router.Event{{Kind: router.UpdateSent, Node: 1, Peer: 2}})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SinkBatch blocked on a stalled subscriber")
	}
	st := f.Stats()
	if st.Dropped != 50 || st.Streamed != subBuffer {
		t.Fatalf("streamed %d dropped %d, want %d/50", st.Streamed, st.Dropped, subBuffer)
	}
}

func TestCancelTwiceIsSafe(t *testing.T) {
	f := NewFeed()
	_, cancel := f.Subscribe()
	cancel()
	cancel()
	f.SinkBatch([]router.Event{{Kind: router.UpdateSent}}) // must not panic or count a sub
	if st := f.Stats(); st.Subscribers != 0 || st.Streamed != 0 {
		t.Fatalf("after cancel: %+v", st)
	}
}

// TestServerEndpoints drives the HTTP plane end to end: /stats and
// /counters serve JSON snapshots, /events streams the hello record, live
// events and periodic stats records.
func TestServerEndpoints(t *testing.T) {
	f := NewFeed()
	f.BindCounters(func() router.Snapshot { return router.Snapshot{Sent: 7} })
	srv, err := Serve(f, "127.0.0.1:0", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Type != "stats" || st.Counters.Sent != 7 {
		t.Fatalf("/stats returned %+v", st)
	}

	resp, err = http.Get(base + "/counters")
	if err != nil {
		t.Fatal(err)
	}
	var c router.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if c.Sent != 7 {
		t.Fatalf("/counters returned %+v", c)
	}

	resp, err = http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no hello record")
	}
	var helloRec map[string]any
	if err := json.Unmarshal(sc.Bytes(), &helloRec); err != nil || helloRec["type"] != "hello" {
		t.Fatalf("first record %q (err %v)", sc.Text(), err)
	}

	f.SinkBatch([]router.Event{{Kind: router.Withdrawn, Time: 3, Node: 1, Prefix: 0, Path: 2}})
	sawEvent, sawStats := false, false
	deadline := time.After(5 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for !(sawEvent && sawStats) {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended early (event %v, stats %v)", sawEvent, sawStats)
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("bad stream line %q: %v", line, err)
			}
			switch m["type"] {
			case "event":
				if m["kind"] == "Withdrawn" {
					sawEvent = true
				}
			case "stats":
				sawStats = true
			}
		case <-deadline:
			t.Fatalf("stream incomplete after 5s (event %v, stats %v)", sawEvent, sawStats)
		}
	}
}
