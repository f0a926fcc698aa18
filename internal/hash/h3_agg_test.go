package hash

import (
	"testing"
	"testing/quick"

	"repro/internal/pkt"
)

// allAggregates enumerates the ten aggregates of Table 3.1.
func allAggregates() []pkt.Aggregate {
	out := make([]pkt.Aggregate, pkt.NumAggregates)
	for a := range out {
		out[a] = pkt.Aggregate(a)
	}
	return out
}

// checkAggEquivalence asserts that the field-wise fast paths produce
// exactly the hash (and unit value) of the serialized key for every
// aggregate — the oracle that guards the zero-allocation extraction
// refactor and the field-wise flow-selection hashes.
func checkAggEquivalence(t *testing.T, h *H3, p *pkt.Packet) {
	t.Helper()
	var buf []byte
	for _, a := range allAggregates() {
		buf = p.AppendAggKey(buf[:0], a)
		want := h.Hash(buf)
		if got := h.HashAgg(p, a); got != want {
			t.Fatalf("aggregate %v, packet %+v: HashAgg = %#x, byte-path Hash = %#x", a, *p, got, want)
		}
		if got, want := h.UnitAgg(p, a), h.Unit(buf); got != want {
			t.Fatalf("aggregate %v, packet %+v: UnitAgg = %v, byte-path Unit = %v", a, *p, got, want)
		}
	}
}

func TestHashAggMatchesBytePath(t *testing.T) {
	// Property test over random packets and random H3 functions, across
	// all ten aggregates.
	seed := uint64(0)
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) bool {
		seed++
		h := NewH3(seed)
		p := pkt.Packet{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: proto}
		var buf []byte
		for _, a := range allAggregates() {
			buf = p.AppendAggKey(buf[:0], a)
			if h.HashAgg(&p, a) != h.Hash(buf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashAggEdgeValues(t *testing.T) {
	// Boundary field values exercise every byte lane of the tables.
	h := NewH3(42)
	values32 := []uint32{0, 1, 0xff, 0xff00, 0xff0000, 0xff000000, 0xffffffff, 0x01020304}
	values16 := []uint16{0, 1, 0xff, 0xff00, 0xffff, 0x0102}
	values8 := []uint8{0, 1, 6, 17, 0xff}
	for _, s := range values32 {
		for _, d := range values32 {
			p := pkt.Packet{SrcIP: s, DstIP: d, SrcPort: values16[s%6], DstPort: values16[d%6], Proto: values8[(s+d)%5]}
			checkAggEquivalence(t, h, &p)
		}
	}
}

func TestHashAggPanicsOnUnknownAggregate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewH3(1).HashAgg(&pkt.Packet{}, pkt.Aggregate(42))
}

// FuzzHashAggEquivalence fuzzes the same bit-identity: for any packet
// header and any H3 seed, the field-wise path must equal the
// serialize-then-hash path on all ten aggregates.
func FuzzHashAggEquivalence(f *testing.F) {
	f.Add(uint64(1), uint32(0x0a000001), uint32(0xc0a80101), uint16(443), uint16(51234), uint8(6))
	f.Add(uint64(2), uint32(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint64(3), uint32(0xffffffff), uint32(0xffffffff), uint16(0xffff), uint16(0xffff), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed uint64, srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) {
		h := NewH3(seed)
		p := pkt.Packet{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: proto}
		var buf []byte
		for _, a := range allAggregates() {
			buf = p.AppendAggKey(buf[:0], a)
			if got, want := h.HashAgg(&p, a), h.Hash(buf); got != want {
				t.Fatalf("aggregate %v: HashAgg = %#x, byte-path Hash = %#x", a, got, want)
			}
		}
	})
}

func BenchmarkHashAggFieldWise(b *testing.B) {
	h := NewH3(1)
	p := pkt.Packet{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 443, DstPort: 51234, Proto: 6}
	b.ReportAllocs()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= h.HashAgg(&p, pkt.Agg5Tuple)
	}
	_ = acc
}

func BenchmarkHashAggBytePath(b *testing.B) {
	h := NewH3(1)
	p := pkt.Packet{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 443, DstPort: 51234, Proto: 6}
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	var acc uint64
	for i := 0; i < b.N; i++ {
		buf = p.AppendAggKey(buf[:0], pkt.Agg5Tuple)
		acc ^= h.Hash(buf)
	}
	_ = acc
}
