package sampling

import (
	"math"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/trace"
)

func genPackets(n int) []pkt.Packet {
	out := make([]pkt.Packet, n)
	for i := range out {
		out[i] = pkt.Packet{
			SrcIP:   uint32(i % 97),
			DstIP:   uint32(i % 13),
			SrcPort: uint16(i % 31),
			DstPort: 80,
			Proto:   pkt.ProtoTCP,
			Size:    100,
		}
	}
	return out
}

func TestMethodStrings(t *testing.T) {
	cases := map[Method]string{None: "none", Packet: "packet", Flow: "flow", Custom: "custom", Method(9): "unknown"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestPacketSampleRateOne(t *testing.T) {
	s := NewPacketSampler(1)
	in := genPackets(100)
	out := s.Sample(in, 1)
	if len(out) != 100 {
		t.Fatalf("rate 1 dropped packets: %d", len(out))
	}
}

func TestPacketSampleRateZero(t *testing.T) {
	s := NewPacketSampler(1)
	if out := s.Sample(genPackets(100), 0); out != nil {
		t.Fatalf("rate 0 kept %d packets", len(out))
	}
}

func TestPacketSampleUnbiased(t *testing.T) {
	s := NewPacketSampler(2)
	in := genPackets(200000)
	out := s.Sample(in, 0.3)
	frac := float64(len(out)) / float64(len(in))
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("sampled fraction = %v, want 0.3", frac)
	}
}

func TestPacketSampleDeterministic(t *testing.T) {
	a := NewPacketSampler(7)
	b := NewPacketSampler(7)
	in := genPackets(1000)
	oa := a.Sample(in, 0.5)
	ob := b.Sample(in, 0.5)
	if len(oa) != len(ob) {
		t.Fatal("same seed sampled differently")
	}
}

func TestFlowSampleKeepsWholeFlows(t *testing.T) {
	fs := NewFlowSampler(3)
	g := trace.NewGenerator(trace.Config{Seed: 1, Duration: 2 * time.Second, PacketsPerSec: 10000})
	for {
		b, ok := g.NextBatch()
		if !ok {
			break
		}
		kept := map[pkt.FlowKey]bool{}
		dropped := map[pkt.FlowKey]bool{}
		out := fs.Sample(b.Pkts, 0.5)
		for i := range out {
			kept[out[i].FlowKey()] = true
		}
		for i := range b.Pkts {
			k := b.Pkts[i].FlowKey()
			if !kept[k] {
				dropped[k] = true
			}
		}
		for k := range kept {
			if dropped[k] {
				t.Fatalf("flow %v partially sampled", k)
			}
		}
	}
}

func TestFlowSampleRateProportionOfFlows(t *testing.T) {
	fs := NewFlowSampler(5)
	// 10000 single-packet flows.
	in := make([]pkt.Packet, 10000)
	for i := range in {
		in[i] = pkt.Packet{SrcIP: uint32(i), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: pkt.ProtoTCP}
	}
	out := fs.Sample(in, 0.25)
	frac := float64(len(out)) / float64(len(in))
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("flow-sampled fraction = %v, want 0.25", frac)
	}
}

func TestFlowSamplerIntervalRedraw(t *testing.T) {
	fs := NewFlowSampler(9)
	in := genPackets(5000)
	before := len(fs.Sample(in, 0.5))
	fs.StartInterval()
	after := len(fs.Sample(in, 0.5))
	// A redrawn hash function must make different selections: identical
	// counts for every flow set would be astronomically unlikely, but we
	// compare membership to be explicit.
	if before == after {
		same := true
		a := fs.Sample(in, 0.5)
		fs.StartInterval()
		b := fs.Sample(in, 0.5)
		if len(a) != len(b) {
			same = false
		} else {
			for i := range a {
				if a[i].SrcIP != b[i].SrcIP {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("hash function not redrawn across intervals")
		}
	}
}

func TestFlowSampleEdgeRates(t *testing.T) {
	fs := NewFlowSampler(11)
	in := genPackets(50)
	if got := fs.Sample(in, 1); len(got) != 50 {
		t.Fatal("rate 1 must keep everything")
	}
	if got := fs.Sample(in, 0); got != nil {
		t.Fatal("rate 0 must drop everything")
	}
	p := in[0]
	if !fs.Keep(&p, 1) {
		t.Fatal("Keep(rate=1) = false")
	}
	if fs.Keep(&p, 0) {
		t.Fatal("Keep(rate=0) = true")
	}
}

// TestSampleAliasesInputAtFullRate pins the ownership semantics the
// trace.Source contract documents: at rate >= 1 both samplers return
// the input slice itself (no copy), so callers must treat the result —
// and the input — as read-only. If this ever changes to a copy, the
// contract note on Sample and on trace.Source must change with it.
func TestSampleAliasesInputAtFullRate(t *testing.T) {
	in := genPackets(32)
	ps := NewPacketSampler(1)
	if got := ps.Sample(in, 1); len(got) != len(in) || &got[0] != &in[0] {
		t.Fatal("PacketSampler.Sample(rate>=1) must return the input slice unchanged")
	}
	fs := NewFlowSampler(2)
	if got := fs.Sample(in, 1.5); len(got) != len(in) || &got[0] != &in[0] {
		t.Fatal("FlowSampler.Sample(rate>=1) must return the input slice unchanged")
	}
	// Below full rate the result must NOT alias the input's backing
	// array, so a query mutating nothing can still re-slice freely.
	if got := ps.Sample(in, 0.5); len(got) > 0 && &got[0] == &in[0] {
		t.Fatal("sampled output aliases the input slice head")
	}
}

func BenchmarkFlowSample(b *testing.B) {
	fs := NewFlowSampler(1)
	in := genPackets(2500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs.Sample(in, 0.5)
	}
}

// TestSampleIntoZeroAllocSteadyState is the PR 5 allocation guard for
// the samplers: with a warmed caller-owned scratch, SampleInto must not
// allocate, and it must select exactly the packets Sample does.
func TestSampleIntoZeroAllocSteadyState(t *testing.T) {
	pkts := genPackets(4096)
	ps := NewPacketSampler(5)
	var dst []pkt.Packet
	dst = ps.SampleInto(dst, pkts, 0.4) // warm up the scratch
	allocs := testing.AllocsPerRun(20, func() {
		dst = ps.SampleInto(dst, pkts, 0.4)
	})
	if allocs != 0 {
		t.Fatalf("PacketSampler.SampleInto steady-state allocations = %v, want 0", allocs)
	}

	fs := NewFlowSampler(5)
	var fdst []pkt.Packet
	fdst = fs.SampleInto(fdst, pkts, 0.4)
	allocs = testing.AllocsPerRun(20, func() {
		fdst = fs.SampleInto(fdst, pkts, 0.4)
	})
	if allocs != 0 {
		t.Fatalf("FlowSampler.SampleInto steady-state allocations = %v, want 0", allocs)
	}
}

// TestSampleIntoMatchesSample pins the equivalence contract: same RNG
// stream, same selection.
func TestSampleIntoMatchesSample(t *testing.T) {
	pkts := genPackets(2048)
	for _, rate := range []float64{-0.1, 0, 0.25, 0.7, 1, 1.5} {
		a, b := NewPacketSampler(9), NewPacketSampler(9)
		var dst []pkt.Packet
		for round := 0; round < 3; round++ {
			want := a.Sample(pkts, rate)
			dst = b.SampleInto(dst, pkts, rate)
			if len(want) != len(dst) {
				t.Fatalf("rate %v round %d: lengths %d vs %d", rate, round, len(want), len(dst))
			}
			for i := range want {
				if want[i].SrcIP != dst[i].SrcIP || want[i].DstIP != dst[i].DstIP ||
					want[i].SrcPort != dst[i].SrcPort || want[i].Ts != dst[i].Ts {
					t.Fatalf("rate %v round %d: packet %d differs", rate, round, i)
				}
			}
		}
		fa, fb := NewFlowSampler(9), NewFlowSampler(9)
		want := fa.Sample(pkts, rate)
		dst = fb.SampleInto(dst, pkts, rate)
		if len(want) != len(dst) {
			t.Fatalf("flow rate %v: lengths %d vs %d", rate, len(want), len(dst))
		}
	}
}

// boundaryRates returns rates on and next to the 53-bit grid the
// selection tests compare against — k/2^53 and its math.Nextafter
// neighbours — plus NaN and a few off-grid values.
func boundaryRates() []float64 {
	rates := []float64{math.NaN(), 0.3, 0.5, 5e-324, math.Nextafter(1, 0)}
	for _, k := range []uint64{1, 2, 3, 12345, 1 << 40, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 - 1} {
		r := float64(k) / (1 << 53)
		rates = append(rates, r, math.Nextafter(r, 0), math.Nextafter(r, 1))
	}
	return rates
}

// TestUnitThresholdMatchesFloatCompare pins the integer selection test
// to the float one it replaces, u/2^53 < rate, for draws around every
// boundary rate's threshold and at the ends of the 53-bit range.
func TestUnitThresholdMatchesFloatCompare(t *testing.T) {
	for _, rate := range boundaryRates() {
		thr := unitThreshold(rate)
		us := []uint64{0, 1, 1<<53 - 2, 1<<53 - 1}
		if !math.IsNaN(rate) {
			c := uint64(rate * (1 << 53))
			for _, d := range []uint64{2, 1} {
				if c >= d {
					us = append(us, c-d)
				}
			}
			us = append(us, c, c+1, c+2)
		}
		for _, u := range us {
			if u >= 1<<53 {
				continue
			}
			want := float64(u)/(1<<53) < rate
			if got := u < thr; got != want {
				t.Fatalf("rate %v (%b): draw %d selected=%v, float compare %v", rate, math.Float64bits(rate), u, got, want)
			}
		}
	}
}

// TestPacketSampleIntoMatchesFloatDraws replays the sampler's RNG stream
// through the float comparison SampleInto used to make and requires
// the same selection and the same stream position afterwards.
func TestPacketSampleIntoMatchesFloatDraws(t *testing.T) {
	pkts := genPackets(4096)
	for i := range pkts {
		pkts[i].Ts = int64(i)
	}
	for _, rate := range append(boundaryRates(), 0.01, 0.99) {
		if !(rate < 1) && !math.IsNaN(rate) {
			continue
		}
		s := NewPacketSampler(77)
		ref := hash.NewXorShift(77)
		got := s.SampleInto(nil, pkts, rate)
		var want []int64
		if rate > 0 || math.IsNaN(rate) {
			for i := range pkts {
				if ref.Float64() < rate {
					want = append(want, pkts[i].Ts)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rate %v: selected %d packets, float draws %d", rate, len(got), len(want))
		}
		for i := range want {
			if got[i].Ts != want[i] {
				t.Fatalf("rate %v: selection %d is packet %d, float draws %d", rate, i, got[i].Ts, want[i])
			}
		}
		if rate > 0 && s.State() != ref.State() {
			t.Fatalf("rate %v: RNG stream position diverged", rate)
		}
	}
}

// TestFlowKeepMatchesUnitFlowKey pins Keep's field-wise hash and integer
// threshold to the serialized-key form it replaces, Unit(FlowKey) <
// rate, on random packets across several intervals — at random rates
// and at each packet's own boundary rate and its neighbours.
func TestFlowKeepMatchesUnitFlowKey(t *testing.T) {
	rng := hash.NewXorShift(5)
	fs := NewFlowSampler(31)
	for interval := 0; interval < 4; interval++ {
		for i := 0; i < 2000; i++ {
			r := rng.Uint64()
			p := pkt.Packet{
				SrcIP:   uint32(r),
				DstIP:   uint32(r >> 32),
				SrcPort: uint16(rng.Uint64()),
				DstPort: uint16(rng.Uint64()),
				Proto:   uint8(rng.Uint64()),
			}
			k := p.FlowKey()
			u := fs.h.Unit(k[:])
			for _, rate := range []float64{rng.Float64(), u, math.Nextafter(u, 0), math.Nextafter(u, 1)} {
				if rate <= 0 || rate >= 1 {
					continue
				}
				if got, want := fs.Keep(&p, rate), u < rate; got != want {
					t.Fatalf("interval %d packet %+v rate %v: Keep=%v, Unit(FlowKey) < rate is %v", interval, p, rate, got, want)
				}
				one := []pkt.Packet{p}
				if got := len(fs.SampleInto(nil, one, rate)) == 1; got != (u < rate) {
					t.Fatalf("interval %d packet %+v rate %v: SampleInto kept=%v, want %v", interval, p, rate, got, u < rate)
				}
			}
		}
		fs.StartInterval()
	}
}
