package simnet

import (
	"gaussiancube/internal/core"
	"gaussiancube/internal/trace"
)

// stepAdaptive advances adaptive packet i, popped at cycle t, by one
// stepper decision. A sampled packet's flight narrates into its
// private ring (the event loop interleaves flights, so emitting
// straight into the shared tracer would shuffle the streams); the
// buffered segment is flushed to the run tracer in one piece when the
// flight terminates.
func stepAdaptive(eng *engine, i int32, t int, ar *core.AdaptiveRouter) {
	p, stats, tr := &eng.pkts[i], eng.stats, eng.cfg.Tracer
	if p.flight == nil {
		var fl *core.Flight
		var err error
		if p.sampled {
			p.ring = trace.NewRing(flightTraceCapacity)
			p.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(p.node), To: uint32(p.dst), Arg: p.genIdx})
			fl, err = ar.StartTraced(p.node, p.dst, core.TreeAuto, p.ring)
		} else {
			fl, err = ar.Start(p.node, p.dst)
		}
		if err != nil {
			// The source died between admission and emission.
			stats.Undeliverable++
			flushFlightTrace(tr, p)
			return
		}
		if stats.TreeRoutes != nil && fl.Tree() >= 0 {
			stats.TreeRoutes[fl.Tree()]++
		}
		p.flight = fl
	}
	fl := p.flight
	st := fl.Step()
	switch st.Kind {
	case core.StepWait:
		// Flight tracks its own waited total; folded in at termination.
		eng.cal.push(t+st.Wait, i)
		return
	case core.StepMove:
		eng.move(i, t, st.To)
		return
	case core.StepDone:
		finishAdaptive(stats, fl)
		if fl.Degraded() {
			stats.Degraded++
		}
		stats.DetourHops.Add(float64(fl.DetourHops()))
		flushFlightTrace(tr, p)
		eng.deliver(p, t, fl.Hops())
	case core.StepFail:
		finishAdaptive(stats, fl)
		stats.DropReasons[st.Reason]++
		if st.Outcome == core.OutcomeUndeliverablePartitioned {
			stats.Partitioned++
		}
		if fl.Hops() == 0 {
			stats.Undeliverable++
		} else {
			stats.Dropped++
		}
		flushFlightTrace(tr, p)
	}
	p.flight = nil
}

// flightTraceCapacity bounds a sampled flight's private event buffer.
// A flight is TTL-bounded (8·(n+1) hops by default) and emits a
// handful of events per hop, so 4096 never wraps in practice; if an
// extreme configuration does wrap, the ring keeps the newest events
// and the flush preserves what survived.
const flightTraceCapacity = 4096

// flushFlightTrace copies a terminated sampled flight's buffered
// narrative into the run tracer as one contiguous segment.
func flushFlightTrace(tr trace.Tracer, p *packet) {
	if p.ring == nil {
		return
	}
	for _, ev := range p.ring.Events() {
		tr.Emit(ev)
	}
	p.ring = nil
}

// finishAdaptive folds a terminal flight's counters into the stats.
func finishAdaptive(stats *Stats, f *core.Flight) {
	stats.Retries += f.Retries()
	stats.Replans += f.Replans()
	stats.WaitCycles += f.WaitCycles()
}
