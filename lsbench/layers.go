package main

// layers.go turns a traced run into per-layer metrics. Layers the
// benchmark can decorate (Source, Sink, each Query) come from the
// traced stream itself. Layers it cannot reach without changing the
// engine's path are measured by isolated replays: their public
// functions are called directly on inputs recorded from the same
// workload — the admitted batches and the per-bin rates, costs and
// predictions the engine reported.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/detect"
	"repro/internal/features"
	"repro/internal/pkt"
	"repro/internal/predict"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/pkg/loadshed"
)

// binsPerInterval is the engine's default measurement interval (1 s)
// in 100 ms bins; the isolated replays rotate interval state on it.
const binsPerInterval = 10

// layerInput is one traced stream's recorded inputs, per shard.
type layerInput struct {
	batches  [][]pkt.Batch // as taken from the source, bin-aligned with recs
	recs     [][]binRec
	metric   func(s int) []loadshed.Query
	strategy loadshed.Strategy
	policy   loadshed.Strategy
	total    float64
	seed     uint64
}

// admitted returns shard s's bin i as the engine admitted it: the
// capture buffer drops from the tail, so it is a prefix of the batch.
func (in *layerInput) admitted(s, i int) pkt.Batch {
	b := in.batches[s][i]
	b.Pkts = b.Pkts[:min(in.recs[s][i].admit, len(b.Pkts))]
	return b
}

func (in *layerInput) bins(s int) int { return min(len(in.batches[s]), len(in.recs[s])) }

// traceTotals accumulates the decorated layers over traced streams.
type traceTotals struct {
	procD     map[string]time.Duration // per query name
	procPkts  map[string]int64
	qAdmitted map[string]int64 // admitted packets of the bins each query saw
	qBins     map[string]int64
	flushD    time.Duration
	flushes   int64
	sinkD     time.Duration
	sinkBins  int64
	next      []float64 // NextBatch durations, µs
	self      []float64 // engine self time per bin, µs
}

func newTraceTotals() *traceTotals {
	return &traceTotals{
		procD: map[string]time.Duration{}, procPkts: map[string]int64{},
		qAdmitted: map[string]int64{}, qBins: map[string]int64{},
	}
}

// add folds one traced stream of one shard in.
func (t *traceTotals) add(src *timedSource, sink *checkSink, trs []*queryTrace) {
	for _, tk := range src.takes {
		t.next = append(t.next, us(tk.ret.Sub(tk.call)))
	}
	var admitted int64
	for _, r := range sink.recs {
		admitted += int64(r.admit)
	}
	for _, d := range sink.sinkD {
		t.sinkD += d
	}
	t.sinkBins += int64(len(sink.sinkD))
	for qi, tr := range trs {
		for _, ps := range tr.proc {
			t.procD[tr.name] += ps.end.Sub(ps.start)
			t.procPkts[tr.name] += int64(ps.pkts)
		}
		t.qAdmitted[tr.name] += admitted
		t.qBins[tr.name] += int64(len(sink.recs))
		for _, f := range tr.flushes {
			t.flushD += f.end.Sub(f.start)
		}
		if qi == 0 {
			t.flushes += int64(len(tr.flushes))
		}
	}
	t.self = append(t.self, selfTimes(src, sink, trs)...)
}

// selfTimes returns, per bin of one shard's traced pass, the bin span
// minus the part its child spans cover: the bin's query Process calls,
// any interval flush inside it, the sink's own work and the checker's.
// Bin i's span ends when the sink returns from bin i and starts when
// the engine took batch i or, if later, when the sink returned from
// bin i-1: the pipelined engine takes batch i while bin i-1 is still
// being executed, and executes bins in order on one goroutine.
func selfTimes(src *timedSource, sink *checkSink, trs []*queryTrace) []float64 {
	n := min(len(src.takes), len(sink.ends))
	children := make(map[time.Duration][]span, n)
	var others []span
	for _, tr := range trs {
		for _, ps := range tr.proc {
			children[ps.bin] = append(children[ps.bin], ps.span)
		}
		others = append(others, tr.flushes...)
	}
	others = append(others, sink.checks...)
	slices.SortFunc(others, func(a, b span) int { return a.start.Compare(b.start) })
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := src.takes[i].ret, sink.ends[i]
		if i > 0 && sink.ends[i-1].After(lo) {
			lo = sink.ends[i-1]
		}
		kids := append([]span(nil), children[src.takes[i].start]...)
		for _, f := range others {
			if f.start.After(hi) {
				break
			}
			if f.end.After(lo) {
				kids = append(kids, f)
			}
		}
		kids = append(kids, span{hi.Add(-sink.sinkD[i]), hi})
		out = append(out, us(hi.Sub(lo)-spanUnion(kids, lo, hi)))
	}
	return out
}

// decorated reports the metrics of the decorated layers. Queries a
// workload does not run are measured in isolation on its admitted
// batches (isolatedQueries) before this is called.
func (t *traceTotals) decorated(m map[string]metric) {
	m["trace.next_us_p50"] = metric{median(t.next), "us"}
	for name, bins := range t.qBins {
		m["queries."+name+".process_us"] = metric{us(t.procD[name]) / float64(bins), "us"}
		m["queries."+name+".pkts_frac"] = metric{float64(t.procPkts[name]) / float64(max(t.qAdmitted[name], 1)), "frac"}
	}
	m["queries.flush_us"] = metric{us(t.flushD) / float64(max(t.flushes, 1)), "us"}
	m["loadshed.sink_us"] = metric{us(t.sinkD) / float64(max(t.sinkBins, 1)), "us"}
	m["loadshed.engine_self_us_p50"] = metric{median(t.self), "us"}
}

// minIsolated is the least time each isolated replay measures; the
// recorded bins are replayed as often as it takes.
const minIsolated = 150 * time.Millisecond

// repeat runs pass until it has taken minIsolated in total and returns
// the total time and the number of passes.
func repeat(pass func() time.Duration) (time.Duration, int) {
	var d time.Duration
	n := 0
	for d < minIsolated {
		d += pass()
		n++
	}
	return d, n
}

// isolatedLayers measures the layers the engine's path hides.
func isolatedLayers(m map[string]metric, in *layerInput) {
	var pkts int64
	for s := range in.recs {
		for i := 0; i < in.bins(s); i++ {
			pkts += int64(in.recs[s][i].admit)
		}
	}
	pkts = max(pkts, 1)

	// features: full extraction, and the sketch half alone. The
	// extraction pass also records each bin's feature vector for the
	// predictor and detector replays.
	vecs := make([][]features.Vector, len(in.recs))
	d, n := repeat(func() time.Duration {
		var d time.Duration
		for s := range in.recs {
			e := features.NewExtractor(in.seed)
			var v features.Vector
			vecs[s] = vecs[s][:0]
			for i := 0; i < in.bins(s); i++ {
				b := in.admitted(s, i)
				t0 := time.Now()
				if i%binsPerInterval == 0 {
					e.StartInterval()
				}
				v = e.ExtractInto(v, &b)
				d += time.Since(t0)
				vecs[s] = append(vecs[s], append(features.Vector(nil), v...))
			}
		}
		return d
	})
	m["features.extract_ns_per_pkt"] = metric{float64(d) / float64(pkts*int64(n)), "ns"}
	d, n = repeat(func() time.Duration {
		e := features.NewExtractor(in.seed)
		sk := features.NewSketch()
		t0 := time.Now()
		for s := range in.recs {
			for i := 0; i < in.bins(s); i++ {
				b := in.admitted(s, i)
				e.SketchInto(sk, b.Pkts)
			}
		}
		return time.Since(t0)
	})
	m["features.sketch_ns_per_pkt"] = metric{float64(d) / float64(pkts*int64(n)), "ns"}

	// sampling: every query's recorded rate applied to the admitted
	// batch, by packet and by flow; cost per input packet.
	var sampled int64
	for s := range in.recs {
		for i := 0; i < in.bins(s); i++ {
			sampled += int64(in.recs[s][i].admit * len(in.recs[s][i].rates))
		}
	}
	sampled = max(sampled, 1)
	var dst []pkt.Packet
	d, n = repeat(func() time.Duration {
		ps := sampling.NewPacketSampler(in.seed)
		t0 := time.Now()
		for s := range in.recs {
			for i := 0; i < in.bins(s); i++ {
				b := in.admitted(s, i)
				for _, r := range in.recs[s][i].rates {
					dst = ps.SampleInto(dst, b.Pkts, r)
				}
			}
		}
		return time.Since(t0)
	})
	m["sampling.packet_ns_per_pkt"] = metric{float64(d) / float64(sampled*int64(n)), "ns"}
	d, n = repeat(func() time.Duration {
		fs := sampling.NewFlowSampler(in.seed)
		t0 := time.Now()
		for s := range in.recs {
			for i := 0; i < in.bins(s); i++ {
				if i%binsPerInterval == 0 {
					fs.StartInterval()
				}
				b := in.admitted(s, i)
				for _, r := range in.recs[s][i].rates {
					dst = fs.SampleInto(dst, b.Pkts, r)
				}
			}
		}
		return time.Since(t0)
	})
	m["sampling.flow_ns_per_pkt"] = metric{float64(d) / float64(sampled*int64(n)), "ns"}

	// predict: one MLR per query, predicting then observing each bin's
	// features against the query's measured cost, as the engine does.
	var bins int64
	for s := range in.recs {
		bins += int64(in.bins(s))
	}
	bins = max(bins, 1)
	d, n = repeat(func() time.Duration {
		var d time.Duration
		for s := range in.recs {
			nq := 0
			if len(in.recs[s]) > 0 {
				nq = len(in.recs[s][0].qused)
			}
			mlrs := make([]*predict.MLR, nq)
			for q := range mlrs {
				mlrs[q] = predict.NewMLR(predict.DefaultHistory, predict.DefaultThreshold)
			}
			t0 := time.Now()
			for i := 0; i < in.bins(s); i++ {
				for q, ml := range mlrs {
					ml.Predict(vecs[s][i])
					ml.Observe(vecs[s][i], in.recs[s][i].qused[q])
				}
			}
			d += time.Since(t0)
		}
		return d
	})
	m["predict.mlr_us_per_bin"] = metric{us(d) / float64(bins*int64(n)), "us"}

	// detect: the drift detector over each bin's features and the
	// aggregate prediction residual the engine feeds it.
	d, n = repeat(func() time.Duration {
		var d time.Duration
		for s := range in.recs {
			det := detect.New(detect.Config{}, features.NumFeatures)
			t0 := time.Now()
			for i := 0; i < in.bins(s); i++ {
				r := &in.recs[s][i]
				det.Observe(vecs[s][i], math.Log((r.used+1)/(r.alloc+1)))
			}
			d += time.Since(t0)
		}
		return d
	})
	m["detect.observe_ns"] = metric{float64(d) / float64(bins*int64(n)), "ns"}

	// sched: the per-query allocation decision at each bin's recorded
	// predictions and availability.
	d, n = repeat(func() time.Duration {
		var d time.Duration
		var ws sched.Workspace
		for s := range in.recs {
			qs := in.metric(s)
			demands := make([]sched.Demand, len(qs))
			t0 := time.Now()
			for i := 0; i < in.bins(s); i++ {
				r := &in.recs[s][i]
				for q := range demands {
					demands[q] = sched.Demand{Name: qs[q].Name(), Cycles: r.qpred[q], MinRate: qs[q].MinRate()}
				}
				sched.AllocateInto(in.strategy, demands, r.avail, &ws)
			}
			d += time.Since(t0)
		}
		return d
	})
	m["sched.allocate_ns"] = metric{float64(d) / float64(bins*int64(n)), "ns"}

	// loadshed coordinator: one round per bin — every shard reports its
	// recorded demand, then the allocation. A single-engine workload
	// runs it with one node, its own budget and the mmfs_cpu policy.
	policy := in.policy
	if policy == nil {
		policy = loadshed.MMFSCPU()
	}
	rounds := 0
	for s := range in.recs {
		rounds = max(rounds, in.bins(s))
	}
	d, n = repeat(func() time.Duration {
		c := loadshed.NewCoordinator(policy, in.total)
		names := make([]string, len(in.recs))
		for s := range names {
			names[s] = fmt.Sprintf("link%d", s)
			c.Join(names[s], 0)
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			for s := range in.recs {
				if i < in.bins(s) {
					r := &in.recs[s][i]
					c.Report(loadshed.DemandReport{Node: names[s], Bin: int64(i), Demand: r.predicted + r.overhead})
				}
			}
			c.AllocateRound()
		}
		return time.Since(t0)
	})
	m["loadshed.coord_round_us"] = metric{us(d) / float64(max(rounds, 1)*n), "us"}
}

// isolatedQueries measures, on the workload's admitted batches, the
// queries its engine does not run, so every query reports a busy time
// on every workload. Each sees every admitted packet at rate 1.
func isolatedQueries(m map[string]metric, in *layerInput, have map[string]bool) error {
	for _, name := range loadshed.QueryKinds() {
		if have[name] {
			continue
		}
		var busy time.Duration
		var bins int64
		for s := range in.recs {
			q, err := loadshed.QueryByName(name, loadshed.QueryConfig{Seed: in.seed})
			if err != nil {
				return err
			}
			for i := 0; i < in.bins(s); i++ {
				if i > 0 && i%binsPerInterval == 0 {
					q.Flush()
				}
				b := in.admitted(s, i)
				t0 := time.Now()
				q.Process(&b, 1)
				busy += time.Since(t0)
				bins++
			}
		}
		m["queries."+name+".process_us"] = metric{us(busy) / float64(max(bins, 1)), "us"}
		m["queries."+name+".pkts_frac"] = metric{1, "frac"}
	}
	return nil
}
