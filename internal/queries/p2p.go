package queries

import (
	"bytes"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// p2p-detector — signature-based P2P flow detection ([121, 83], cost:
// high). This is the flagship query of Chapter 6: it is *not* robust to
// traffic sampling (a dropped first data packet loses the signature for
// good), so it ships a custom load shedding method.

// p2pSignatures are the payload signatures the detector matches,
// aligned with what the traffic generator embeds.
var p2pSignatures = [][]byte{trace.SigBitTorrent, trace.SigGnutella, trace.SigED2K}

// isP2PPort reports whether p is one of the canonical P2P ports used by
// the fallback heuristic. It sits on the per-packet path for every
// custom-shed flow, so it compiles to a handful of compares instead of
// the map probe (hash, bucket walk, possible cache miss) it replaced.
func isP2PPort(p uint16) bool {
	switch p {
	case 6881, 6346, 4662, 1214:
		return true
	}
	return false
}

// p2pInspectPackets is how many payload-carrying packets per flow are
// scanned before the flow is declared non-P2P.
const p2pInspectPackets = 2

// P2PResult is the per-interval answer: the set of flows identified as
// P2P plus the (scaled, when the custom shedder is active) estimated
// count.
type P2PResult struct {
	Detected map[pkt.FlowKey]bool
	Count    float64
}

type p2pFlowState struct {
	inspected int
	isP2P     bool
	decided   bool
}

// P2PDetector tracks per-flow state and scans the first payload packets
// of each flow against the signature set. Cost is dominated by the
// per-byte signature scan, making it the most expensive query in the
// set (Figure 2.2).
//
// Custom load shedding (Chapter 6): when ShedTo(f) is called with
// f < 1, the detector inspects payloads only for the fraction f of
// flows selected by a hash of the flow key, and classifies the rest by
// the port heuristic alone — far cheaper, and far more accurate than
// dropping packets, because every flow still gets classified.
type P2PDetector struct {
	cfg          Config
	h3           *hash.H3
	flows        map[pkt.FlowKey]*p2pFlowState
	inspectFrac  float64
	sigDetected  float64
	portDetected float64
	// free pools flow-state values across intervals; newState refills it
	// a slab at a time so per-flow state costs one allocation per slab,
	// and only until the pool reflects the steady-state flow count.
	free []*p2pFlowState
}

// p2pStateSlab is how many flow states are allocated at once when the
// pool runs dry.
const p2pStateSlab = 64

// newState returns a zeroed flow state from the pool.
func (q *P2PDetector) newState() *p2pFlowState {
	if len(q.free) == 0 {
		slab := make([]p2pFlowState, p2pStateSlab)
		for i := range slab {
			q.free = append(q.free, &slab[i])
		}
	}
	st := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	return st
}

// NewP2PDetector returns a P2P detector.
func NewP2PDetector(cfg Config) *P2PDetector {
	return &P2PDetector{
		cfg:         cfg,
		h3:          hash.NewH3(cfg.Seed + 0x9279),
		flows:       make(map[pkt.FlowKey]*p2pFlowState),
		inspectFrac: 1,
	}
}

// Name implements Query.
func (q *P2PDetector) Name() string { return "p2p-detector" }

// Method implements Query: the detector asks for custom shedding.
func (q *P2PDetector) Method() sampling.Method { return sampling.Custom }

// MinRate implements Query (Table 6.1 scenario; the detector tolerates
// moderate shedding through its custom method).
func (q *P2PDetector) MinRate() float64 { return 0.30 }

// Interval implements Query.
func (q *P2PDetector) Interval() time.Duration { return q.cfg.interval() }

// ShedTo implements the custom load shedding contract of Chapter 6: the
// system asks the query to reduce its resource usage to fraction f of
// the unshed load; the detector responds by restricting payload
// inspection to a hash-selected fraction of flows.
func (q *P2PDetector) ShedTo(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	q.inspectFrac = f
}

// InspectFraction returns the current custom shedding fraction.
func (q *P2PDetector) InspectFraction() float64 { return q.inspectFrac }

func (q *P2PDetector) inspects(p *pkt.Packet) bool {
	if q.inspectFrac >= 1 {
		return true
	}
	if q.inspectFrac <= 0 {
		return false
	}
	return q.h3.UnitAgg(p, pkt.Agg5Tuple) < q.inspectFrac
}

// Process implements Query.
func (q *P2PDetector) Process(b *pkt.Batch, _ float64) Ops {
	var ops Ops
	for i := range b.Pkts {
		p := &b.Pkts[i]
		k := p.FlowKey()
		ops.Lookups++
		st, ok := q.flows[k]
		if !ok {
			st = q.newState()
			q.flows[k] = st
			ops.Inserts++
			if !q.inspects(p) {
				// Custom-shed flow: classify by port alone, now.
				st.decided = true
				if isP2PPort(p.DstPort) {
					st.isP2P = true
					q.portDetected++
				}
			}
		}
		if st.decided || len(p.Payload) == 0 {
			continue
		}
		// Signature scan of an undecided, inspected flow.
		ops.Bytes += int64(len(p.Payload)) * int64(len(p2pSignatures))
		for _, sig := range p2pSignatures {
			if bytes.Contains(p.Payload, sig) {
				st.isP2P = true
				st.decided = true
				q.sigDetected++
				break
			}
		}
		if !st.decided {
			st.inspected++
			if st.inspected >= p2pInspectPackets {
				st.decided = true // non-P2P: signatures absent
			}
		}
	}
	ops.Packets = int64(len(b.Pkts))
	return ops
}

// Flush implements Query.
func (q *P2PDetector) Flush() (Result, Ops) { return q.FlushInto(nil) }

// FlushInto implements ResultRecycler: flow states are zeroed back into
// the pool, the flow table is cleared in place and the detected set
// reuses prev's map when given. Reported values are identical to
// Flush's.
func (q *P2PDetector) FlushInto(prev Result) (Result, Ops) {
	var detected map[pkt.FlowKey]bool
	if p, ok := prev.(P2PResult); ok && p.Detected != nil {
		detected = p.Detected
		clear(detected)
	} else {
		detected = make(map[pkt.FlowKey]bool)
	}
	for k, st := range q.flows {
		if st.isP2P {
			detected[k] = true
		}
		*st = p2pFlowState{}
		q.free = append(q.free, st)
	}
	count := q.sigDetected + q.portDetected
	n := int64(len(q.flows))
	clear(q.flows)
	q.sigDetected, q.portDetected = 0, 0
	return P2PResult{Detected: detected, Count: count}, Ops{Flushes: n}
}

// Error implements Query: one minus the fraction of the reference's
// P2P flows correctly identified (§2.2.1).
func (q *P2PDetector) Error(got, ref Result) float64 {
	g, r := got.(P2PResult), ref.(P2PResult)
	if len(r.Detected) == 0 {
		return 0
	}
	hits := 0
	for k := range g.Detected {
		if r.Detected[k] {
			hits++
		}
	}
	return 1 - float64(hits)/float64(len(r.Detected))
}

// Reset implements Query.
func (q *P2PDetector) Reset() {
	for _, st := range q.flows {
		*st = p2pFlowState{}
		q.free = append(q.free, st)
	}
	clear(q.flows)
	q.sigDetected, q.portDetected = 0, 0
	q.inspectFrac = 1
}
