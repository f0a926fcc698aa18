package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/custom"
	"repro/internal/queries"
	"repro/lsbench/compare"
	"repro/pkg/loadshed"
)

// TestDecoratorsForwardCapabilities checks that a traced query exposes
// the optional capabilities the engine type-asserts for exactly when
// the wrapped query has them, so tracing never changes the engine's
// path.
func TestDecoratorsForwardCapabilities(t *testing.T) {
	var qs []loadshed.Query
	for _, name := range loadshed.QueryKinds() {
		q, err := loadshed.QueryByName(name, loadshed.QueryConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	qs = append(qs, loadshed.NewSelfishP2P(loadshed.QueryConfig{}), loadshed.NewBuggyP2P(loadshed.QueryConfig{}))
	traced, _ := traceQueries(qs)
	for i, q := range qs {
		_, rec := q.(queries.ResultRecycler)
		_, shed := q.(custom.Shedder)
		_, trec := traced[i].(queries.ResultRecycler)
		_, tshed := traced[i].(custom.Shedder)
		if rec != trec || shed != tshed {
			t.Errorf("%s: recycler %v shedder %v, traced: %v %v", q.Name(), rec, shed, trec, tshed)
		}
		if traced[i].Method() != q.Method() || traced[i].Name() != q.Name() {
			t.Errorf("%s: traced query reports a different name or method", q.Name())
		}
	}
}

// TestSelfTimesPipelined checks engine self time on a pipelined
// timeline, where the engine takes batch 1 while bin 0 is still being
// executed: bin 1's span must start when bin 0 reached the sink, so
// bin 0's query work is not charged to bin 1.
func TestSelfTimesPipelined(t *testing.T) {
	t0 := time.Now()
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	src := &timedSource{takes: []take{
		{call: at(0), ret: at(0), start: 0},
		{call: at(1), ret: at(1), start: bin},
	}}
	sink := &checkSink{
		ends:  []time.Time{at(6), at(10)},
		sinkD: []time.Duration{time.Millisecond / 2, time.Millisecond / 2},
	}
	tr := &queryTrace{proc: []procSpan{
		{span: span{at(1), at(5)}, bin: 0},
		{span: span{at(7), at(9)}, bin: bin},
	}}
	got := selfTimes(src, sink, []*queryTrace{tr})
	want := []float64{1500, 1500} // µs: span less Process less sink
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("bin %d: self time %.3f µs, want %.3f", i, got[i], want[i])
		}
	}
}

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// TestSinkSpinIsFlagged is the benchmark's sensitivity self-check on
// cesca2-replay: a busy-wait of a tenth of the median bin time inside
// the sink decorator must make at least one end-to-end metric worse
// than its bound, while a second untouched series must not. Untouched,
// slowed and second untouched runs alternate, so drift on the machine
// hits all three alike.
func TestSinkSpinIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("streams cesca2-replay for about a minute")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	const seed, runs, secs = 7, 6, 2.0
	r := cesca2Rig(seed)
	want, acc, refs := verification(r)
	o := options{workload: "cesca2-replay", seed: seed, log: io.Discard}
	measure := func(spin time.Duration) map[string]metric {
		o.sinkSpin = spin
		p := runPasses(o, r, secs, false, want, acc, refs)
		if p.failed > 0 {
			t.Fatalf("spin %v: %d of %d passes differ from the verification run", spin, p.failed, p.attempted)
		}
		return endToEnd(p, acc, 1)
	}
	spin := time.Duration(0.1 * measure(0)["bin_ms_p50"].Value * float64(time.Millisecond))
	var base, slow, again []map[string]metric
	for i := 0; i < runs; i++ {
		base = append(base, measure(0))
		slow = append(slow, measure(spin))
		again = append(again, measure(0))
	}
	flagged := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" || m.Name == "accuracy_err" {
			continue // not timed by the passes
		}
		var b, s, a []float64
		for i := range base {
			b = append(b, base[i][m.Name].Value)
			s = append(s, slow[i][m.Name].Value)
			a = append(a, again[i][m.Name].Value)
		}
		higher := m.Better == "higher"
		js := compare.Judge(b, s, higher, m.Bound)
		ja := compare.Judge(b, a, higher, m.Bound)
		t.Logf("%-15s spin %v: %s", m.Name, spin, js)
		t.Logf("%-15s untouched: %s", m.Name, ja)
		if js.Verdict == compare.Worse {
			flagged = true
		}
		if ja.Verdict == compare.Worse {
			t.Errorf("%s: an untouched series is flagged worse beyond the bound %g", m.Name, m.Bound)
		}
	}
	if !flagged {
		t.Errorf("a %v busy-wait per bin (a tenth of the median bin time) moved no metric beyond its bound", spin)
	}
}
