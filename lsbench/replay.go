package main

// replay.go runs the two closed-loop replay workloads: pre-generated
// batches replayed from memory as fast as the engine takes them. Each
// timed pass streams the whole trace through a freshly built engine,
// so every pass must reproduce the verification run's records exactly.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/pkt"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

// rig is a replay workload after set-up: its inputs, its reference
// results and how to build and stream its engine.
type rig struct {
	shards int
	// mem holds each shard's pre-generated batches.
	mem [][]pkt.Batch
	// metric returns fresh query instances whose Error methods score
	// shard s's results (matched by index).
	metric func(s int) []loadshed.Query
	// build constructs a fresh engine over the given sources, wrapping
	// each shard's queries with wrap when it is non-nil. The returned
	// function streams once into the given per-shard sinks.
	build func(srcs []loadshed.Source, wrap func(shard int, qs []loadshed.Query) []loadshed.Query) func(sinks []loadshed.Sink)
	// verify makes the untimed verification Run, one record per shard.
	verify func() []*loadshed.RunResult
	// reference makes the lossless reference run of shard s.
	reference func(s int) *loadshed.RunResult
	// strategy is the per-query allocator each shard's engine uses,
	// policy the cross-shard one (nil without a coordinator), and
	// total the coordinator's budget.
	strategy loadshed.Strategy
	policy   loadshed.Strategy
	total    float64
	params   map[string]any
}

func memSource(batches []pkt.Batch) loadshed.Source {
	return trace.NewMemorySource(batches, trace.DefaultTimeBin)
}

// noBursts turns off the generator's flash bursts (multi-bin 3x load
// surges starting with probability 0.008 per bin). A 20-30 s trace
// holds a Poisson handful of them, so their count, not the code under
// test, decided the tail latencies from one seed to the next.
func noBursts(cfg loadshed.TraceConfig) loadshed.TraceConfig {
	cfg.BurstProb = -1
	return cfg
}

// materialize drains a generator into memory.
func materialize(cfg loadshed.TraceConfig) []pkt.Batch {
	g := loadshed.NewGenerator(cfg)
	var out []pkt.Batch
	for {
		b, ok := g.NextBatch()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

// headroom is how much more traffic than a workload's target volume
// its trace is generated with; thin brings it down to the target.
const headroom = 1.15

// thin keeps perBin packets per bin on average: that many times the
// bin count, evenly spaced in arrival order over the whole trace, so
// the bins keep their relative load. Flow lengths are heavy-tailed, so
// a preset's volume varied by ±10 % from seed to seed, and the bin
// latencies followed the volume rather than the code. A trace that is
// already short of the target is kept whole.
func thin(batches []pkt.Batch, perBin int) []pkt.Batch {
	var n int64
	for i := range batches {
		n += int64(len(batches[i].Pkts))
	}
	want := int64(perBin) * int64(len(batches))
	if n <= want {
		return batches
	}
	var j int64
	for i := range batches {
		kept := make([]pkt.Packet, 0, len(batches[i].Pkts)*int(want)/int(n)+1)
		for _, p := range batches[i].Pkts {
			if (j+1)*want/n > j*want/n {
				kept = append(kept, p)
			}
			j++
		}
		batches[i].Pkts = kept
	}
	return batches
}

// setupRepeats is how many times a run sets its workload up; setup_s
// reports the median, and the last rig is the one measured.
const setupRepeats = 3

// timedSetup builds the rig setupRepeats times and returns the last one
// with the median set-up time.
func timedSetup(mk func() *rig) (*rig, float64) {
	var r *rig
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		r = mk()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return r, median(ds)
}

// passes is what a series of timed passes measured.
type passes struct {
	m meter
	// Per pass: packets per second, CPU ns per packet and every bin's
	// latency, in bin order.
	pps, cpuPerPkt []float64
	bins           [][]float64
	// Steady-state allocation: bytes and the wire packets they cover.
	allocBytes        uint64
	allocWire         int64
	attempted, failed int64
	tt                *traceTotals // traced passes only
	lastSinks         []*checkSink
}

// binProfile returns each bin's median latency over the passes. Every
// pass makes the same decisions on the same input (the output gate
// checks it), so a bin's latency differs between passes only with what
// else ran on the machine.
func binProfile(bins [][]float64) []float64 {
	n := len(bins[0])
	for _, b := range bins {
		n = min(n, len(b))
	}
	out := make([]float64, n)
	col := make([]float64, len(bins))
	for i := range out {
		for k, b := range bins {
			col[k] = b[i]
		}
		out[i] = median(col)
	}
	return out
}

// runPasses streams the rig through fresh engines until the timed
// region reaches seconds, checking every pass against the verification
// digest and accuracy.
func runPasses(o options, r *rig, seconds float64, traced bool, wantDigest fnv, wantAcc float64, refs []*loadshed.RunResult) *passes {
	p := &passes{}
	if traced {
		p.tt = newTraceTotals()
	}
	for p.attempted == 0 || p.m.wall.Seconds() < seconds {
		srcs := make([]*timedSource, r.shards)
		lsrcs := make([]loadshed.Source, r.shards)
		sinks := make([]*checkSink, r.shards)
		lsinks := make([]loadshed.Sink, r.shards)
		for s := 0; s < r.shards; s++ {
			srcs[s] = newTimedSource(memSource(r.mem[s]), len(r.mem[s]))
			lsrcs[s] = srcs[s]
			sinks[s] = newCheckSink(len(r.mem[s]), r.metric(s), refs[s])
			sinks[s].spin = o.sinkSpin
			sinks[s].traced = traced
			lsinks[s] = sinks[s]
		}
		var traces [][]*queryTrace
		var wrap func(int, []loadshed.Query) []loadshed.Query
		if traced {
			traces = make([][]*queryTrace, r.shards)
			wrap = func(s int, qs []loadshed.Query) []loadshed.Query {
				out, trs := traceQueries(qs)
				traces[s] = trs
				return out
			}
		}
		stream := r.build(lsrcs, wrap)
		runtime.GC()

		p.m.start()
		t0 := time.Now()
		stream(lsinks)
		// Checkers run on their shard's goroutine: their wall time is
		// the union of their spans, their CPU time the sum.
		exclWall := spanUnion(checkSpans(sinks), t0, time.Now())
		var exclCPU time.Duration
		for _, c := range sinks {
			exclCPU += c.checkCPU
		}
		wall, cpu := p.m.stop(exclWall, exclCPU)
		ab, aw := steadyAlloc(sinks)
		p.allocBytes += ab
		p.allocWire += aw
		var wire int64
		for _, c := range sinks {
			wire += c.wire
		}
		p.pps = append(p.pps, float64(wire)/wall.Seconds())
		p.cpuPerPkt = append(p.cpuPerPkt, float64(cpu)/float64(wire))

		p.attempted++
		digest := fnvOffset
		per := map[string]float64{}
		for s, c := range sinks {
			digest = digest.u64(uint64(c.digest))
			for qi, q := range c.metric {
				per[fmt.Sprintf("%d/%s", s, q.Name())] = meanOf(c.errs[qi])
			}
		}
		acc := meanAccuracy(per)
		if digest != wantDigest || acc != wantAcc {
			p.failed++
			fmt.Fprintf(o.log, "pass %d: digest %x accuracy %.6g, verification %x %.6g\n",
				p.attempted, uint64(digest), acc, uint64(wantDigest), wantAcc)
		}
		p.bins = append(p.bins, binLatencies(srcs, sinks))
		if traced {
			for s := range sinks {
				p.tt.add(srcs[s], sinks[s], traces[s])
			}
		}
		p.lastSinks = sinks
	}
	return p
}

// verification makes the untimed verification run and returns its
// digest and accuracy error, plus each shard's reference run.
func verification(r *rig) (fnv, float64, []*loadshed.RunResult) {
	res := r.verify()
	digest := fnvOffset
	per := map[string]float64{}
	refs := make([]*loadshed.RunResult, r.shards)
	for s, rr := range res {
		h := fnvOffset
		for i := range rr.Bins {
			h = digestBin(h, &rr.Bins[i])
		}
		digest = digest.u64(uint64(h))
		refs[s] = r.reference(s)
		for name, e := range loadshed.MeanErrors(r.metric(s), rr, refs[s]) {
			per[fmt.Sprintf("%d/%s", s, name)] = e
		}
	}
	return digest, meanAccuracy(per), refs
}

// runReplay runs either replay workload.
func runReplay(o options, setup func() *rig) (*outcome, error) {
	r, setupS := timedSetup(setup)
	wantDigest, wantAcc, refs := verification(r)
	out := &outcome{params: r.params}
	if !o.traced {
		p := runPasses(o, r, o.seconds, false, wantDigest, wantAcc, refs)
		out.res = result{
			Correct:   p.failed == 0,
			Attempted: p.attempted,
			Failed:    p.failed,
			Metrics:   endToEnd(p, wantAcc, setupS),
		}
		return out, nil
	}
	// Traced: half the time untraced (the overhead baseline), half
	// traced, then the isolated layer replays.
	base := runPasses(o, r, o.seconds/2, false, wantDigest, wantAcc, refs)
	tp := runPasses(o, r, o.seconds/2, true, wantDigest, wantAcc, refs)
	m := map[string]metric{}
	tp.tt.decorated(m)
	m["loadshed.trace_overhead_frac"] = metric{median(base.pps)/median(tp.pps) - 1, "frac"}
	m["loadshed.alloc_b_per_pkt"] = metric{float64(base.allocBytes) / float64(max(base.allocWire, 1)), "B"}
	in := &layerInput{
		batches: r.mem, metric: r.metric, strategy: r.strategy,
		policy: r.policy, total: r.total, seed: o.seed,
	}
	have := map[string]bool{}
	for s, c := range tp.lastSinks {
		in.recs = append(in.recs, c.recs)
		for _, q := range r.metric(s) {
			have[q.Name()] = true
		}
	}
	isolatedLayers(m, in)
	if err := isolatedQueries(m, in, have); err != nil {
		return nil, err
	}
	// The ingest send is one more attempt; it fails when invalid.
	ok, err := ingestReplay(m, r.mem[0])
	if err != nil {
		return nil, err
	}
	failed := base.failed + tp.failed
	if !ok {
		failed++
	}
	out.res = result{
		Correct:   failed == 0,
		Attempted: base.attempted + tp.attempted + 1,
		Failed:    failed,
		Metrics:   m,
	}
	return out, nil
}

// endToEnd assembles the end-to-end metrics of a series of passes.
func endToEnd(p *passes, acc, setupS float64) map[string]metric {
	prof := binProfile(p.bins)
	return map[string]metric{
		"pkts_per_s":     {median(p.pps), "1/s"},
		"bin_ms_p50":     {median(prof), "ms"},
		"bin_ms_p99":     {quantile(prof, 0.99), "ms"},
		"accuracy_err":   {acc, "frac"},
		"cpu_ns_per_pkt": {median(p.cpuPerPkt), "ns"},
		"setup_s":        {setupS, "s"},
	}
}

// runCESCA2Replay is the cesca2-replay workload.
func runCESCA2Replay(o options) (*outcome, error) {
	return runReplay(o, func() *rig { return cesca2Rig(o.seed) })
}

// cesca2Dur is the length of the cesca2-replay trace and cesca2PerBin
// its volume: CESCA2's nominal 27.4k pkts/s.
const (
	cesca2Dur    = 30 * time.Second
	cesca2PerBin = 2740
)

func cesca2Rig(seed uint64) *rig {
	batches := thin(materialize(noBursts(loadshed.CESCA2(seed, cesca2Dur, headroom))), cesca2PerBin)
	qcfg := loadshed.QueryConfig{Seed: seed}
	capacity := loadshed.CapacityForOverload(memSource(batches), loadshed.AllQueries(qcfg), seed+1, 2)
	workers := runtime.GOMAXPROCS(0)
	cfg := loadshed.Config{
		Scheme:         loadshed.Predictive,
		Strategy:       loadshed.MMFSPkt(),
		Capacity:       capacity,
		Seed:           seed + 2,
		CustomShedding: true,
		Workers:        workers,
	}
	r := &rig{
		shards:   1,
		mem:      [][]pkt.Batch{batches},
		metric:   func(int) []loadshed.Query { return loadshed.AllQueries(qcfg) },
		strategy: cfg.Strategy,
		total:    capacity,
		params: map[string]any{
			"preset": "cesca2", "scale": headroom, "pkts_per_bin": cesca2PerBin, "trace_s": cesca2Dur.Seconds(),
			"queries": "all", "scheme": "predictive", "strategy": "mmfs_pkt",
			"custom_shedding": true, "overload": 2, "workers": workers,
			"capacity": capacity, "loop": "closed",
		},
	}
	r.build = func(srcs []loadshed.Source, wrap func(int, []loadshed.Query) []loadshed.Query) func([]loadshed.Sink) {
		qs := loadshed.AllQueries(qcfg)
		if wrap != nil {
			qs = wrap(0, qs)
		}
		sys := loadshed.New(cfg, qs)
		return func(sinks []loadshed.Sink) {
			sys.StreamContext(context.Background(), srcs[0], sinks[0])
		}
	}
	r.verify = func() []*loadshed.RunResult {
		return []*loadshed.RunResult{loadshed.New(cfg, loadshed.AllQueries(qcfg)).Run(memSource(batches))}
	}
	r.reference = func(int) *loadshed.RunResult {
		return loadshed.Reference(memSource(batches), loadshed.AllQueries(qcfg), seed+1)
	}
	// Building the first engine belongs to set-up, like construction
	// in a serving process.
	r.build([]loadshed.Source{memSource(batches)}, nil)
	return r
}
