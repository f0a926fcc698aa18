package features

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/pkt"
	"repro/internal/trace"
)

// sketchTrace records a couple of seconds of generator batches so the
// sketch tests see real-ish key distributions, not toy rows.
func sketchTrace(t testing.TB) []pkt.Batch {
	g := trace.NewGenerator(trace.Config{Seed: 31, Duration: 2 * time.Second, PacketsPerSec: 6000})
	batches := trace.Record(g)
	if len(batches) == 0 {
		t.Fatal("generator produced no batches")
	}
	return batches
}

// TestSketchMatchesExtract pins the sketch/finish split to the one-shot
// Extract path: SketchInto + ExtractFromSketch on a second extractor
// with the same seed must reproduce Extract bit for bit, including the
// Ops accounting the engine charges from sk.Ops().
func TestSketchMatchesExtract(t *testing.T) {
	batches := sketchTrace(t)
	whole := NewExtractor(4)
	split := NewExtractor(4)
	sk := NewSketch()
	whole.StartInterval()
	split.StartInterval()
	for _, b := range batches {
		want := append(Vector(nil), whole.Extract(&b)...)
		split.SketchInto(sk, b.Pkts)
		split.Ops += sk.Ops()
		got := split.ExtractFromSketch(sk, float64(b.Packets()), float64(b.Bytes()))
		if !reflect.DeepEqual(want, append(Vector(nil), got...)) {
			t.Fatalf("split extraction diverged from Extract:\nwant %v\ngot  %v", want, got)
		}
	}
	if whole.Ops != split.Ops {
		t.Fatalf("Ops accounting diverged: Extract %d, sketch path %d", whole.Ops, split.Ops)
	}
}
