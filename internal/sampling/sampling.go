// Package sampling implements the load shedding mechanisms of thesis
// §4.2: uniform packet sampling and hash-based flow sampling (Flowwise,
// [43]) with a fresh H3 function drawn every measurement interval to
// prevent bias and deliberate evasion.
package sampling

import (
	"math"

	"repro/internal/hash"
	"repro/internal/pkt"
)

// Method identifies how excess load is shed for a query (Table 2.2).
type Method int

const (
	// None disables shedding for the query.
	None Method = iota
	// Packet selects individual packets with probability equal to the
	// sampling rate.
	Packet
	// Flow selects entire 5-tuple flows with probability equal to the
	// sampling rate (Flowwise hash-based selection).
	Flow
	// Custom delegates shedding to the query itself (Chapter 6).
	Custom
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case Packet:
		return "packet"
	case Flow:
		return "flow"
	case Custom:
		return "custom"
	default:
		return "unknown"
	}
}

// PacketSampler selects packets independently with the requested
// probability. The zero value is unusable; construct with
// NewPacketSampler.
type PacketSampler struct {
	rng *hash.XorShift
}

// NewPacketSampler returns a sampler seeded deterministically.
func NewPacketSampler(seed uint64) *PacketSampler {
	return &PacketSampler{rng: hash.NewXorShift(seed)}
}

// State returns the sampler's RNG state for a checkpoint.
func (s *PacketSampler) State() uint64 { return s.rng.State() }

// SetState restores a state returned by State: the sampler then makes
// the identical selection sequence a never-checkpointed one would.
func (s *PacketSampler) SetState(st uint64) { s.rng.SetState(st) }

// Sample returns the packets of b selected with probability rate. A
// rate >= 1 returns the input slice itself (no copy — shedding nothing
// is free), so the result may alias the caller's batch; consistent with
// the trace.Source ownership contract, treat both as read-only. A rate
// <= 0 selects nothing. Use SampleInto on the hot path to avoid the
// per-call allocation.
func (s *PacketSampler) Sample(pkts []pkt.Packet, rate float64) []pkt.Packet {
	if rate >= 1 {
		return pkts
	}
	if rate <= 0 {
		return nil
	}
	return s.SampleInto(make([]pkt.Packet, 0, int(float64(len(pkts))*rate)+1), pkts, rate)
}

// SampleInto is Sample writing the selection into dst (truncated, grown
// only when capacity runs out) — the allocation-free form for callers
// that own a per-sampler scratch slice. The RNG draw sequence, and
// therefore the selection, is identical to Sample's: one draw per input
// packet when 0 < rate < 1, none otherwise. A rate >= 1 returns the
// input slice itself, bypassing dst.
func (s *PacketSampler) SampleInto(dst []pkt.Packet, pkts []pkt.Packet, rate float64) []pkt.Packet {
	if rate >= 1 {
		return pkts
	}
	dst = dst[:0]
	if rate <= 0 {
		return dst
	}
	thr := unitThreshold(rate)
	for i := range pkts {
		if s.rng.Uint64()>>11 < thr {
			dst = append(dst, pkts[i])
		}
	}
	return dst
}

// unitThreshold returns the integer form of the selection test
// u/2^53 < rate for a 53-bit draw u (how hash.XorShift.Float64 and
// hash.H3.Unit map to [0,1)): for a real x, an integer u < x exactly
// when u < ceil(x), and rate·2^53 is exact (a power-of-two scaling), so
// u < unitThreshold(rate) selects exactly the draws the float
// comparison does, without converting each one. A NaN rate selects
// nothing, as the float comparison would.
func unitThreshold(rate float64) uint64 {
	if math.IsNaN(rate) {
		return 0
	}
	return uint64(math.Ceil(rate * (1 << 53)))
}

// FlowSampler implements Flowwise sampling: a packet is selected when
// the H3 hash of its 5-tuple, mapped to [0,1), falls below the sampling
// rate, so whole flows are kept or dropped together without caching any
// per-flow state. StartInterval draws a fresh hash function, as §4.2
// prescribes, once per measurement interval.
type FlowSampler struct {
	seed     uint64
	interval uint64
	h        *hash.H3
}

// NewFlowSampler returns a flow sampler; call StartInterval before the
// first use of each measurement interval.
func NewFlowSampler(seed uint64) *FlowSampler {
	fs := &FlowSampler{seed: seed}
	fs.StartInterval()
	return fs
}

// StartInterval re-draws the hash function for a new measurement
// interval, reseeding the existing table in place.
func (s *FlowSampler) StartInterval() {
	s.interval++
	if s.h == nil {
		s.h = new(hash.H3)
	}
	s.h.Reseed(s.seed + s.interval*0x9e3779b97f4a7c15)
}

// Interval returns the interval counter a checkpoint must carry: the
// hash function is a pure function of (seed, interval), so the counter
// is the sampler's entire mutable state.
func (s *FlowSampler) Interval() uint64 { return s.interval }

// SetInterval restores a counter returned by Interval and re-derives
// the interval's hash function from it, so a restored sampler keeps or
// drops exactly the flows the original would have.
func (s *FlowSampler) SetInterval(interval uint64) {
	s.interval = interval
	if s.h == nil {
		s.h = new(hash.H3)
	}
	s.h.Reseed(s.seed + s.interval*0x9e3779b97f4a7c15)
}

// Keep reports whether the flow of p is selected at the given rate.
func (s *FlowSampler) Keep(p *pkt.Packet, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return s.h.HashAgg(p, pkt.Agg5Tuple)>>11 < unitThreshold(rate)
}

// Sample returns the packets of b whose flows are selected at the given
// rate. Like PacketSampler.Sample, a rate >= 1 aliases the input slice;
// treat both as read-only. Use SampleInto on the hot path to avoid the
// per-call allocation.
func (s *FlowSampler) Sample(pkts []pkt.Packet, rate float64) []pkt.Packet {
	if rate >= 1 {
		return pkts
	}
	if rate <= 0 {
		return nil
	}
	return s.SampleInto(make([]pkt.Packet, 0, int(float64(len(pkts))*rate)+1), pkts, rate)
}

// SampleInto is Sample writing the selection into dst (truncated, grown
// only when capacity runs out) — the allocation-free form for callers
// that own a per-sampler scratch slice. Selection is hash-based and
// stateless per packet, so it is identical to Sample's. A rate >= 1
// returns the input slice itself, bypassing dst.
func (s *FlowSampler) SampleInto(dst []pkt.Packet, pkts []pkt.Packet, rate float64) []pkt.Packet {
	if rate >= 1 {
		return pkts
	}
	dst = dst[:0]
	if rate <= 0 {
		return dst
	}
	thr := unitThreshold(rate)
	for i := range pkts {
		if s.h.HashAgg(&pkts[i], pkt.Agg5Tuple)>>11 < thr {
			dst = append(dst, pkts[i])
		}
	}
	return dst
}
