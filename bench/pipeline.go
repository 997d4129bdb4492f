package main

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/churn"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/wire/bgp4"
)

// pipeMsg is one encoded UPDATE in the pipeline's FIFO.
type pipeMsg struct {
	from, to bgp.NodeID
	payload  []byte
	enqueued int64 // recorder clock at enqueue
	cause    int32 // the encode span that produced it
}

// pipeline wires the shipped router cores to a harness-owned FIFO — no
// delay model, no MRAI, no faults — so that every call across a layer
// boundary happens in the harness's own code, where a span can be put
// around it: Router.Refresh, the codec's encode inside its SendFunc, the
// wait in the queue, the codec's decode, the apply, and the event fan-out
// into a telemetry feed. It runs the same decision process on the same
// inputs as the substrates, so by Lemma 7.4 it must reach their state.
//
// With a nil recorder the same code runs untraced; the difference between
// the two walls is the tracing overhead.
type pipeline struct {
	d        *domain
	routers  []*router.Router
	counters router.Counters
	sends    []router.SendFunc
	bgp4     bool
	encoders []bgp4.UpdateEncoder // one per router, bgp4 codec only

	queue []pipeMsg
	head  int
	bufs  [][]byte
	upd   wire.Update // bgp4 reassembly scratch

	mux *router.Mux // event fan-out into the feed; nil when no feed is attached

	routes int64 // routes carried by the UPDATEs sent so far

	rec     *recorder
	event   int32 // id of the E-BGP event in progress
	current int32 // the refresh span in progress, parent of its encodes
}

func newPipeline(d *domain, codec string, feed *telemetry.Feed) (*pipeline, error) {
	dom, err := router.NewDomain(d.systems, protocol.Modified, selection.Options{})
	if err != nil {
		return nil, err
	}
	p := &pipeline{d: d, bgp4: codec == "bgp4", event: -1}
	if feed != nil {
		p.mux = &router.Mux{}
		p.mux.AddBatch(feed.SinkBatch)
	}
	bgpID := func(u uint32) (uint32, bool) {
		if int(u) >= d.routers {
			return 0, false
		}
		return uint32(d.base.BGPID(bgp.NodeID(u))), true
	}
	for u := 0; u < d.routers; u++ {
		rt := dom.NewRouter(bgp.NodeID(u), &p.counters)
		if p.mux != nil {
			rt.Events(p.mux.Batch)
		}
		p.routers = append(p.routers, rt)
		id, _ := bgpID(uint32(u))
		p.encoders = append(p.encoders, bgp4.UpdateEncoder{LocalID: id, ClusterID: id, OriginatorID: bgpID})
		p.sends = append(p.sends, p.sendFrom(bgp.NodeID(u)))
	}
	return p, nil
}

func (p *pipeline) getBuf() []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 256)
}

// sendFrom is router u's transport: encode into a recycled buffer and
// enqueue.
func (p *pipeline) sendFrom(u bgp.NodeID) router.SendFunc {
	return func(w bgp.NodeID, upd *wire.Update) (int64, error) {
		p.routes += int64(len(upd.Announced) + len(upd.Withdrawn))
		sp := p.rec.begin(spanEncode, p.current, p.event)
		var data []byte
		if p.bgp4 {
			data = p.encoders[u].Append(p.getBuf(), upd)
		} else {
			var err error
			if data, err = wire.AppendUpdate(p.getBuf(), upd); err != nil {
				return -1, err
			}
		}
		p.rec.end(sp)
		p.queue = append(p.queue, pipeMsg{from: u, to: w, payload: data, enqueued: p.rec.now(), cause: sp})
		return 0, nil
	}
}

func (p *pipeline) refresh(u bgp.NodeID, cause int32) {
	sp := p.rec.begin(spanRefresh, cause, p.event)
	p.current = sp
	p.routers[u].Refresh(0, p.sends[u])
	p.rec.end(sp)
	if p.mux != nil {
		sink := p.rec.begin(spanSink, sp, p.event)
		p.mux.Flush()
		p.rec.end(sink)
	}
}

// deliver decodes one message and applies it at its receiver.
func (p *pipeline) deliver(m pipeMsg, cause int32) error {
	rt := p.routers[m.to]
	if !p.bgp4 {
		sp := p.rec.begin(spanDecode, cause, p.event)
		v, _, err := wire.DecodeView(m.payload)
		p.rec.end(sp)
		if err != nil {
			return fmt.Errorf("pipeline: decode %d -> %d: %w", m.from, m.to, err)
		}
		sp = p.rec.begin(spanApply, cause, p.event)
		err = rt.ApplyUpdateView(0, m.from, v)
		p.rec.end(sp)
		p.bufs = append(p.bufs, m.payload)
		return err
	}
	sp := p.rec.begin(spanDecode, cause, p.event)
	p.upd.Withdrawn, p.upd.Announced = p.upd.Withdrawn[:0], p.upd.Announced[:0]
	for data := m.payload; len(data) > 0; {
		_, body, total, err := bgp4.SplitFrame(data)
		if err != nil {
			return fmt.Errorf("pipeline: bgp4 frame %d -> %d: %w", m.from, m.to, err)
		}
		f, err := bgp4.DecodeUpdate(body)
		if err != nil {
			return fmt.Errorf("pipeline: bgp4 update %d -> %d: %w", m.from, m.to, err)
		}
		p.upd.Withdrawn = append(p.upd.Withdrawn, f.Withdrawn...)
		p.upd.Announced = append(p.upd.Announced, f.Announced...)
		data = data[total:]
	}
	p.rec.end(sp)
	sp = p.rec.begin(spanApply, cause, p.event)
	err := rt.ApplyUpdate(0, m.from, &p.upd)
	p.rec.end(sp)
	p.bufs = append(p.bufs, m.payload)
	return err
}

// drain runs the FIFO to quiescence. Like both substrates, a receiver
// empties what has already arrived for it at the queue head before it
// re-runs the decision process.
func (p *pipeline) drain() error {
	for p.head < len(p.queue) {
		to := p.queue[p.head].to
		var wait int32
		for p.head < len(p.queue) && p.queue[p.head].to == to {
			m := p.queue[p.head]
			p.queue[p.head] = pipeMsg{}
			p.head++
			wait = p.rec.add(spanQueueWait, m.enqueued, m.cause, p.event)
			if err := p.deliver(m, wait); err != nil {
				return err
			}
		}
		p.refresh(to, wait)
		if p.head > 4096 && p.head > len(p.queue)/2 {
			n := copy(p.queue, p.queue[p.head:])
			p.queue = p.queue[:n]
			p.head = 0
		}
	}
	p.queue, p.head = p.queue[:0], 0
	return nil
}

// cold injects every exit of every prefix and converges: the sim-cold
// input as one traced event.
func (p *pipeline) cold() error {
	p.event++
	root := p.rec.begin(spanEvent, -1, p.event)
	touched := make([]bool, p.d.routers)
	for _, prefix := range p.d.prefixes {
		for _, ex := range p.d.systems[prefix].Exits() {
			p.routers[ex.ExitPoint].Inject(0, prefix, ex.ID)
			touched[ex.ExitPoint] = true
		}
	}
	for u, t := range touched {
		if t {
			p.refresh(bgp.NodeID(u), root)
		}
	}
	err := p.drain()
	p.rec.end(root)
	return err
}

// apply converges one churn event.
func (p *pipeline) apply(ev churn.Event) error {
	p.event++
	root := p.rec.begin(spanEvent, -1, p.event)
	at := p.d.systems[ev.Prefix].Exit(ev.Path).ExitPoint
	if ev.Withdraw {
		p.routers[at].WithdrawExternal(0, ev.Prefix, ev.Path)
	} else {
		p.routers[at].Inject(0, ev.Prefix, ev.Path)
	}
	p.refresh(at, root)
	err := p.drain()
	p.rec.end(root)
	return err
}

func (p *pipeline) best(prefix uint32, u bgp.NodeID) bgp.PathID { return p.routers[u].Best(prefix) }
