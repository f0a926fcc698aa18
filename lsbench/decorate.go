package main

// decorate.go holds the decorators the benchmark wraps around the
// engine's public seams — Source, Sink and each Query — to time the
// engine from the outside. They only observe: every call is forwarded
// unchanged, so a decorated run produces the same records as a bare one
// (the correctness gate checks exactly that).

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/custom"
	"repro/internal/pkt"
	"repro/internal/queries"
	"repro/pkg/loadshed"
)

// span is one timed call.
type span struct {
	start, end time.Time
}

// take records one NextBatch call: when it was made, when it returned
// and which bin it delivered.
type take struct {
	call, ret time.Time
	start     time.Duration // batch.Start
}

// timedSource records every NextBatch call.
type timedSource struct {
	src   loadshed.Source
	takes []take
}

func newTimedSource(src loadshed.Source, bins int) *timedSource {
	return &timedSource{src: src, takes: make([]take, 0, bins+1)}
}

func (s *timedSource) NextBatch() (pkt.Batch, bool) {
	t0 := time.Now()
	b, ok := s.src.NextBatch()
	if ok {
		s.takes = append(s.takes, take{call: t0, ret: time.Now(), start: b.Start})
	}
	return b, ok
}

// Reset forwards and forgets what was recorded: the engine resets its
// source once before the first bin of every stream.
func (s *timedSource) Reset() {
	s.src.Reset()
	s.takes = s.takes[:0]
}

func (s *timedSource) TimeBin() time.Duration { return s.src.TimeBin() }

// binRec is what the traced run keeps of a bin for the isolated layer
// replays: copies, never the engine's recycled slices.
type binRec struct {
	admit                        int
	avail, used, alloc, overhead float64
	predicted                    float64
	rates, qused, qpred          []float64
}

// checkSink wraps the RollingStats sink the serving path uses. It
// times every bin's delivery, folds every bin record into a digest and,
// given the reference run, computes the accuracy error of every
// interval as it is flushed. The accuracy work is benchmark overhead,
// not engine work: its wall spans and its CPU time are recorded so
// they can be taken out of the timings.
type checkSink struct {
	roll *loadshed.RollingStats

	// spin busy-waits inside every OnBin before forwarding: the
	// injected slowdown of the sensitivity self-check. Zero otherwise.
	spin time.Duration

	ends   []time.Time // OnBin return, per bin
	digest fnv
	wire   int64
	bins   int

	// Steady-state allocation: a fresh engine grows its scratch early
	// in a stream, so allocation is counted only after the record of
	// bin markAt — markAlloc is the process's allocation count then,
	// markWire the wire packets of the bins after it.
	markAt    int
	markAlloc uint64
	markWire  int64

	// Accuracy against the reference run (nil: not checked).
	metric []loadshed.Query
	ref    *loadshed.RunResult
	errs   [][]float64
	// checks are the checker's wall spans and checkCPU its CPU time,
	// read from the thread clock of the thread it is locked to while
	// it runs; exclAlloc is its allocation after the mark.
	checks    []span
	checkCPU  time.Duration
	exclAlloc uint64
	allocRead []metrics.Sample

	// Traced run only.
	traced bool
	sinkD  []time.Duration // time inside RollingStats.OnBin, per bin
	recs   []binRec
}

func newCheckSink(bins int, metric []loadshed.Query, ref *loadshed.RunResult) *checkSink {
	c := &checkSink{
		roll:      loadshed.NewRollingStats(100),
		markAt:    bins / 2,
		ends:      make([]time.Time, 0, bins+1),
		digest:    fnvOffset,
		metric:    metric,
		ref:       ref,
		allocRead: []metrics.Sample{{Name: allocMetric}},
	}
	if ref != nil {
		c.errs = make([][]float64, len(metric))
	}
	return c
}

func (c *checkSink) OnQuery(i int, name string) { c.roll.OnQuery(i, name) }

func (c *checkSink) OnBin(b *loadshed.BinStats) {
	if c.spin > 0 {
		for t := time.Now(); time.Since(t) < c.spin; {
		}
	}
	var t0 time.Time
	if c.traced {
		t0 = time.Now()
	}
	c.roll.OnBin(b)
	end := time.Now()
	c.ends = append(c.ends, end)
	if c.traced {
		c.sinkD = append(c.sinkD, end.Sub(t0))
		c.recs = append(c.recs, binRec{
			admit: b.AdmitPkts, avail: b.Avail, used: b.Used,
			alloc: b.Alloc, overhead: b.Overhead, predicted: b.Predicted,
			rates: append([]float64(nil), b.Rates...),
			qused: append([]float64(nil), b.QueryUsed...),
			qpred: append([]float64(nil), b.QueryPred...),
		})
	}
	c.wire += int64(b.WirePkts)
	if c.bins > c.markAt {
		c.markWire += int64(b.WirePkts)
	}
	c.digest = digestBin(c.digest, b)
	if c.bins == c.markAt {
		c.markAlloc = c.readAlloc()
	}
	c.bins++
}

func (c *checkSink) readAlloc() uint64 {
	metrics.Read(c.allocRead)
	return c.allocRead[0].Value.Uint64()
}

// digestBin folds the decision-bearing fields of a bin record into h:
// packet counts, cycle totals, and the per-query rates, costs and
// predictions.
func digestBin(h fnv, b *loadshed.BinStats) fnv {
	h = h.u64(uint64(b.WirePkts)).u64(uint64(b.DropPkts)).u64(uint64(b.AdmitPkts))
	h = h.f64(b.Capacity).f64(b.Predicted).f64(b.Alloc).f64(b.Used).f64(b.Overhead).f64(b.Shed)
	for i := range b.Rates {
		h = h.f64(b.Rates[i]).f64(b.QueryUsed[i]).f64(b.QueryPred[i])
	}
	return h
}

func (c *checkSink) OnInterval(iv *loadshed.IntervalResults) {
	c.roll.OnInterval(iv)
	if c.ref == nil || iv.Index >= len(c.ref.Intervals) {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, cpu0 := time.Now(), threadCPU()
	a0 := c.readAlloc()
	rr := c.ref.Intervals[iv.Index].Results
	for qi, q := range c.metric {
		if qi >= len(iv.Results) || qi >= len(rr) || iv.Results[qi] == nil || rr[qi] == nil {
			continue
		}
		e := math.Min(math.Max(q.Error(iv.Results[qi], rr[qi]), 0), 1)
		c.errs[qi] = append(c.errs[qi], e)
	}
	if c.bins > c.markAt {
		c.exclAlloc += c.readAlloc() - a0
	}
	c.checkCPU += threadCPU() - cpu0
	c.checks = append(c.checks, span{t0, time.Now()})
}

// SinkTransient implements loadshed.TransientSink: the checker copies
// values out (and, traced, copies slices), so the engine may recycle
// record storage exactly as it does under a bare RollingStats.
func (c *checkSink) SinkTransient() bool { return true }

// queryTrace records one query's calls in the traced run. A query is
// driven by one goroutine at a time and the engine orders bins, so the
// slices need no lock; they are read after the stream returns.
type queryTrace struct {
	name    string
	proc    []procSpan
	flushes []span
}

type procSpan struct {
	span
	bin  time.Duration // batch.Start of the processed batch
	pkts int
}

// tracedQuery times Process and Flush of the wrapped query.
type tracedQuery struct {
	loadshed.Query
	tr *queryTrace
}

func (q *tracedQuery) Process(b *pkt.Batch, rate float64) queries.Ops {
	t0 := time.Now()
	ops := q.Query.Process(b, rate)
	q.tr.proc = append(q.tr.proc, procSpan{span: span{t0, time.Now()}, bin: b.Start, pkts: len(b.Pkts)})
	return ops
}

func (q *tracedQuery) Flush() (queries.Result, queries.Ops) {
	t0 := time.Now()
	r, ops := q.Query.Flush()
	q.tr.flushes = append(q.tr.flushes, span{t0, time.Now()})
	return r, ops
}

// The engine looks for two optional query capabilities by type
// assertion. The wrappers below expose each exactly when the wrapped
// query has it, so decorating never changes which path the engine
// takes.

type tracedRecycler struct{ *tracedQuery }

func (q tracedRecycler) FlushInto(prev queries.Result) (queries.Result, queries.Ops) {
	t0 := time.Now()
	r, ops := q.Query.(queries.ResultRecycler).FlushInto(prev)
	q.tr.flushes = append(q.tr.flushes, span{t0, time.Now()})
	return r, ops
}

type tracedShedder struct{ *tracedQuery }

func (q tracedShedder) ShedTo(frac float64) { q.Query.(custom.Shedder).ShedTo(frac) }

type tracedBoth struct{ tracedRecycler }

func (q tracedBoth) ShedTo(frac float64) { q.Query.(custom.Shedder).ShedTo(frac) }

// traceQueries wraps every query and returns the wrapped set with the
// traces, index-aligned.
func traceQueries(qs []loadshed.Query) ([]loadshed.Query, []*queryTrace) {
	out := make([]loadshed.Query, len(qs))
	trs := make([]*queryTrace, len(qs))
	for i, q := range qs {
		tr := &queryTrace{name: q.Name()}
		tq := &tracedQuery{Query: q, tr: tr}
		_, rec := q.(queries.ResultRecycler)
		_, shed := q.(custom.Shedder)
		switch {
		case rec && shed:
			out[i] = tracedBoth{tracedRecycler{tq}}
		case rec:
			out[i] = tracedRecycler{tq}
		case shed:
			out[i] = tracedShedder{tq}
		default:
			out[i] = tq
		}
		trs[i] = tr
	}
	return out, trs
}
