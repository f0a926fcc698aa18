package loadshed

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/pkt"
	"repro/internal/sampling"
	"repro/internal/sched"
)

// coldStartRate is the sampling rate applied before the predictor has
// any history at all.
const coldStartRate = 0.05

// parallelIndexed runs fn(0) … fn(n-1) on a bounded pool of workers
// goroutines (inline when the pool would be size 1), handing indices
// out through an atomic counter, and returns once every call finished.
// The Cluster's shard-runner pool builds on it, and the execute stage's
// staticPool hands indices out the same way; determinism is the
// caller's contract — fn(i) must touch only index-owned state.
func parallelIndexed(n, workers int, fn func(int)) {
	w := min(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// staticPool is a persistent fixed-size worker pool with the same
// index-handout contract as parallelIndexed, for the execute stage's
// per-bin fan-out: parallelIndexed spawns goroutines per call, the pool
// spawns them once per run. run is zero-alloc when fn is prebuilt (the
// System's execFn is).
type staticPool struct {
	workers int
	fn      func(int)
	n       int
	next    atomic.Int64
	start   chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
}

func newStaticPool(workers int) *staticPool {
	p := &staticPool{
		workers: workers,
		start:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for k := 0; k < workers; k++ {
		go p.worker()
	}
	return p
}

func (p *staticPool) worker() {
	for {
		select {
		case <-p.start:
		case <-p.done:
			return
		}
		for {
			i := int(p.next.Add(1)) - 1
			if i >= p.n {
				break
			}
			p.fn(i)
		}
		p.wg.Done()
	}
}

// run executes fn(0) … fn(n-1) across the pool's workers and the
// calling goroutine, returning when all have finished. One run at a
// time; the caller owns the pool.
func (p *staticPool) run(n int, fn func(int)) {
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.wg.Add(p.workers)
	for k := 0; k < p.workers; k++ {
		p.start <- struct{}{}
	}
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	p.wg.Wait()
}

// close releases the pool's goroutines. The pool must be idle.
func (p *staticPool) close() { close(p.done) }

// BinContext threads one batch's state through the pipeline stages. A
// fresh context is built per bin by newBinContext; each stage reads the
// fields of the stages before it and fills in its own. The final
// per-bin record accumulates in Stats.
type BinContext struct {
	// Bin is the batch's index in the run.
	Bin int
	// Wire is the batch as captured on the wire, before admission.
	Wire *pkt.Batch
	// Admitted is the traffic that survived the capture buffer (admit).
	Admitted pkt.Batch
	// Stats is the per-bin record under construction.
	Stats BinStats

	// Controller inputs resolved at construction.
	capacity  float64
	unlimited bool

	// Stage outputs.
	bufferLoss bool            // admit: §4.1 soft buffer-occupancy signal
	overhead   float64         // platformOverhead + extractPredict cycles
	fv         features.Vector // extractPredict: full-stream features
	// sketch is the admitted batch's bitmap sketch (extractPredict):
	// the front stage's validated speculative sketch under the bin
	// pipeline, the global extractor's internal sketch otherwise.
	// Full-rate queries merge it instead of re-hashing in executeQuery.
	sketch     *features.Sketch
	rates      []float64    // decideShedding: per-query sampling rates
	shedCycles float64      // execute: sampling + re-extraction cycles
	exec       []execResult // execute: per-query slots, merged in index order
}

// execResult is one query's contribution to the bin, written by exactly
// one worker and merged deterministically after the pool drains.
type execResult struct {
	used  float64 // measured query cycles
	alloc float64 // predicted cycles × applied rate
}

// newBinContext starts the pipeline for one captured batch. The context
// itself and its internal slices live on the System and are reused
// every bin (bins are strictly sequential; the worker pool drains
// before the next bin starts). The public Stats slices are also reused
// when the run's sink is transient; otherwise they are fresh per bin,
// because a retaining sink keeps them forever.
func (s *System) newBinContext(bin int, b *pkt.Batch) *BinContext {
	capacity := s.gov.Capacity()
	nq := len(s.qs)
	bc := &s.bc
	rates, exec := bc.rates, bc.exec
	var sRates, sUsed, sPred []float64
	if s.recycle {
		sRates, sUsed, sPred = bc.Stats.Rates, bc.Stats.QueryUsed, bc.Stats.QueryPred
	}
	*bc = BinContext{
		Bin:  bin,
		Wire: b,
		Stats: BinStats{
			Start:     b.Start,
			Capacity:  capacity,
			WirePkts:  b.Packets(),
			WireBytes: b.Bytes(),
			Rates:     resizeZeroed(sRates, nq),
			QueryUsed: resizeZeroed(sUsed, nq),
			QueryPred: resizeZeroed(sPred, nq),
		},
		capacity:  capacity,
		unlimited: math.IsInf(capacity, 1),
		rates:     resizeZeroed(rates, nq),
	}
	if cap(exec) < nq {
		exec = make([]execResult, nq)
	}
	bc.exec = exec[:nq]
	clear(bc.exec)
	for i := range bc.rates {
		bc.rates[i] = 1
	}
	return bc
}

// resizeZeroed returns s resized to n with every element zero, reusing
// capacity when possible (a nil s always allocates — the retain-mode
// path hands fresh slices to the sink).
func resizeZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// step processes one batch through the full pipeline (Algorithm 1):
// capture-buffer admission, platform overhead, feature extraction and
// prediction, the shedding decision, per-query sampling and execution,
// and controller feedback.
func (s *System) step(bin int, b *pkt.Batch) BinStats {
	bc := s.newBinContext(bin, b)
	s.admit(bc)
	s.platformOverhead(bc)
	s.extractPredict(bc)
	s.decideShedding(bc)
	s.execute(bc)
	s.detectChange(bc)
	s.feedback(bc)
	return bc.Stats
}

// admit models the capture buffer: when the system lags more than the
// buffer can hold, incoming packets are dropped without control before
// the system ever sees them ("DAG drops").
func (s *System) admit(bc *BinContext) {
	admitted := bc.Wire.Pkts
	if !bc.unlimited {
		occ := s.gov.Delay() / bc.capacity
		bc.Stats.BufferBins = occ
		// Soft signal at 75% occupancy: the §4.1 "predefined value"
		// that resets rtthresh before any packet is lost.
		if occ > 0.75*s.cfg.BufferBins {
			bc.bufferLoss = true
		}
		if excess := occ - s.cfg.BufferBins; excess > 0 {
			dropFrac := math.Min(1, excess)
			nDrop := int(dropFrac * float64(len(admitted)))
			bc.Stats.DropPkts = nDrop
			// Tail drop: a full DAG buffer loses the packets that
			// arrive while it is full — the newest ones (§4.1). The
			// already-buffered head of the bin survives.
			admitted = admitted[:len(admitted)-nDrop]
		}
	}
	bc.Stats.AdmitPkts = len(admitted)
	bc.Admitted = pkt.Batch{Start: bc.Wire.Start, Bin: bc.Wire.Bin, Pkts: admitted}
}

// platformOverhead charges the platform's own work (como_cycles):
// capture, filtering, memory and storage management, with rare spikes
// for disk interference.
func (s *System) platformOverhead(bc *BinContext) {
	bc.overhead = comoPerBin + comoPerPkt*float64(len(bc.Admitted.Pkts))
	if s.noise.Float64() < diskSpikeProb {
		bc.overhead += comoPerBin * diskSpikeFactor
	}
}

// extractPredict runs feature extraction over the admitted stream and
// asks every query's predictor for its full-rate cost (predictive
// scheme only), charging the prediction subsystem's cycles.
func (s *System) extractPredict(bc *BinContext) {
	if s.cfg.Scheme != Predictive {
		return
	}
	var predSum float64
	// Resolve the admitted batch's sketch. Under the bin pipeline the
	// front stage speculatively sketched the wire batch; admission only
	// ever truncates the batch's tail, so an equal packet count means
	// the sketch is exactly the admitted batch's and the expensive
	// hashing already happened off this goroutine. A mismatch (a rare
	// DAG-drop bin) re-sketches the admitted prefix in place, restoring
	// sequential semantics at sequential cost.
	sk := s.specSketch
	if sk == nil {
		sk = s.globalExt.Sketch()
		s.globalExt.SketchInto(sk, bc.Admitted.Pkts)
	} else if sk.Pkts() != len(bc.Admitted.Pkts) {
		s.globalExt.SketchInto(sk, bc.Admitted.Pkts)
	}
	bc.sketch = sk
	s.globalExt.Ops += sk.Ops()
	bc.overhead += feCostPerOp * float64(sk.Ops())
	// FinishSketchInto writes the extractor's scratch vector — no
	// per-bin allocation. It stays valid for the whole bin (workers read
	// it in execute) because the next write to it is the next bin's
	// extractPredict, on this goroutine, after the pool has drained.
	bc.fv = s.globalExt.ExtractFromSketch(sk, float64(bc.Admitted.Packets()), float64(bc.Admitted.Bytes()))
	for i, rq := range s.qs {
		if rq == nil { // tombstoned: predicts 0, contributes nothing
			continue
		}
		var fit, fcbf int64
		if rq.mlr != nil {
			fcbf, fit = rq.mlr.FCBFOps, rq.mlr.FitOps
		}
		p := rq.pred.Predict(bc.fv)
		if rq.mlr != nil {
			bc.overhead += fcbfCostPerOp*float64(rq.mlr.FCBFOps-fcbf) + mlrCostPerOp*float64(rq.mlr.FitOps-fit)
		}
		bc.Stats.QueryPred[i] = p
		predSum += p
	}
	bc.Stats.Predicted = predSum
}

// decideShedding turns availability and predictions into per-query
// sampling rates, according to the configured scheme.
func (s *System) decideShedding(bc *BinContext) {
	avail := s.gov.Avail(bc.overhead)
	bc.Stats.Avail = avail
	switch s.cfg.Scheme {
	case Predictive:
		if !bc.unlimited {
			s.decidePredictive(avail, bc.Stats.QueryPred, bc.rates)
		}
	case Reactive:
		if !bc.unlimited {
			// Eq. 4.1: srate_t = min(1, max(α, srate_{t-1} ·
			// (avail_t − delay)/consumed_{t-1})), where avail is just
			// capacity minus overhead and delay is only the previous
			// bin's overshoot — the reactive baseline has no notion of
			// accumulated backlog, which is exactly why it overruns its
			// buffers under sustained overload (Fig. 4.2c).
			rAvail := bc.capacity - bc.overhead - s.reactiveDelay
			r := 1.0
			if s.lastConsumed > 0 {
				r = s.reactiveRate * rAvail / s.lastConsumed
			}
			r = math.Min(1, math.Max(s.cfg.ReactiveMinRate, r))
			s.reactiveRate = r
			for i := range bc.rates {
				bc.rates[i] = r
			}
		}
	case Original, NoShed:
		// No sampling: the buffer is the only defence.
	}
}

// decidePredictive fills rates according to the configured strategy (or
// the Chapter 4 single global rate when no strategy is set).
func (s *System) decidePredictive(avail float64, preds []float64, rates []float64) {
	var predSum float64
	for _, p := range preds {
		predSum += p
	}
	if predSum <= 0 {
		// Cold start: no model yet (first batch ever). Processing blind
		// at full rate can cost many times the bin budget before the
		// first observation lands; admit a conservative trickle instead
		// so the first history points are cheap and informative.
		for i := range rates {
			rates[i] = coldStartRate
		}
		return
	}
	if s.cfg.Strategy == nil {
		rate := 1.0
		if s.gov.NeedShed(avail, predSum) {
			rate = s.gov.Rate(avail, predSum)
		}
		for i := range rates {
			rates[i] = rate
		}
		return
	}
	budget := s.gov.QueryBudget(avail)
	if cap(s.demandBuf) < len(s.qs) {
		s.demandBuf = make([]sched.Demand, len(s.qs))
	}
	demands := s.demandBuf[:len(s.qs)]
	for i, rq := range s.qs {
		if rq == nil {
			// Tombstoned slot: a zero Demand is neutral under every
			// strategy (no cycles, no minimum rate), so the allocation
			// the live queries see is unchanged by the slot's presence.
			demands[i] = sched.Demand{}
			continue
		}
		demand := preds[i]
		if rq.shed != nil {
			// The custom manager's correction factor converts the
			// (shed-regime) prediction into a demand estimate.
			demand = s.manager.Demand(rq.shed, preds[i])
		}
		demands[i] = sched.Demand{
			Name:    rq.q.Name(),
			Cycles:  demand,
			MinRate: rq.q.MinRate(),
		}
	}
	for i, a := range sched.AllocateInto(s.cfg.Strategy, demands, budget, &s.schedWs) {
		rates[i] = a.Rate
	}
}

// execute sheds and runs every query. The shared shed-stream
// re-extraction happens once, sequentially; the per-query work then
// fans out over a bounded worker pool (Config.Workers). Every worker
// touches only its query's state and per-index result slots, and the
// slots are merged in index order afterwards, so the bin record is
// bit-identical for any worker count.
func (s *System) execute(bc *BinContext) {
	// Re-extract features of the shed stream once, shared across
	// queries (§5.5.4: "the traffic features could be recomputed just
	// once"). The shared vector approximates every sampled query's
	// stream; per-query interval state is maintained by merging the
	// shared batch bitmaps, which costs no re-hashing.
	if s.cfg.Scheme == Predictive {
		repRate, nSampled := 0.0, 0
		for i, r := range bc.rates {
			if s.qs[i] == nil {
				continue
			}
			if r < 1 && !(s.qs[i].shed != nil && s.qs[i].shed.Mode() == custom.ModeCustom) {
				repRate += r
				nSampled++
			}
		}
		if nSampled > 0 {
			repRate /= float64(nSampled)
			sampled := s.shedSamp.SampleInto(s.shedBuf, bc.Admitted.Pkts, repRate)
			if repRate < 1 {
				// Keep the (possibly grown) scratch — but only when it was
				// actually filled: the mean of rates < 1 can round to
				// exactly 1, and then SampleInto returned the admitted
				// batch itself, which must never become the scratch a
				// later bin writes into.
				s.shedBuf = sampled[:0]
			}
			sb := pkt.Batch{Start: bc.Admitted.Start, Bin: bc.Admitted.Bin, Pkts: sampled}
			opsBefore := s.shedExt.Ops
			// Only the side effect matters here — shedExt's batch bitmaps,
			// which sampled queries merge from in executeQuery — so the
			// scratch vector Extract fills is deliberately unused.
			s.shedExt.Extract(&sb)
			bc.shedCycles += feCostPerOp * float64(s.shedExt.Ops-opsBefore)
			bc.shedCycles += sampleCostPerPkt * float64(len(bc.Admitted.Pkts))
		}
	}

	if s.execFn == nil {
		// bc is always the System's reused context, so one closure serves
		// every bin.
		s.execFn = func(i int) { s.executeQuery(&s.bc, i) }
	}
	if s.execPool != nil {
		s.execPool.run(len(s.qs), s.execFn)
	} else {
		for i := range s.qs {
			s.execFn(i)
		}
	}

	// Deterministic merge: index order fixes the floating-point
	// summation order regardless of which worker ran which query.
	// Tombstoned slots are skipped: their exec slots are zero, but their
	// never-written Rates entry (0) would otherwise pin GlobalRate to 0
	// for the rest of the run.
	usedSum, allocSum, minRate := 0.0, 0.0, 1.0
	for i := range s.qs {
		if s.qs[i] == nil {
			continue
		}
		usedSum += bc.exec[i].used
		allocSum += bc.exec[i].alloc
		if r := bc.Stats.Rates[i]; r < minRate {
			minRate = r
		}
	}
	bc.Stats.Used = usedSum
	bc.Stats.Shed = bc.shedCycles
	bc.Stats.Overhead = bc.overhead
	bc.Stats.Alloc = allocSum
	bc.Stats.GlobalRate = minRate
}

// executeQuery sheds, runs, measures and observes one query. It runs on
// a worker goroutine: it may read shared state frozen by the earlier
// stages (the admitted batch, the global and shed extractors' batch
// bitmaps) but writes only query-local state (samplers, predictor,
// extractor, custom-shedding record, its own RNG stream) and the
// per-index slots of bc.
func (s *System) executeQuery(bc *BinContext, i int) {
	rq := s.qs[i]
	if rq == nil { // tombstoned slot: zero rate, zero cycles, no result
		return
	}
	rate := bc.rates[i]
	qb := &rq.qbatch
	*qb = bc.Admitted
	effRate := rate // the rate the query is told was applied

	if rq.shed != nil && s.cfg.Scheme == Predictive {
		switch rq.shed.Mode() {
		case custom.ModeCustom:
			// Custom shedding: the query sheds internally; the
			// batch is delivered whole and the query assumes no
			// packet loss. A zero allocation withholds the batch
			// entirely (the query is disabled for this bin).
			s.manager.Apply(rq.shed, rate)
			effRate = 1
			if rate <= 0 {
				qb.Pkts = nil
			}
		case custom.ModePoliced:
			// The system took shedding away: enforced packet
			// sampling (§6.1.1).
			s.manager.Apply(rq.shed, rate)
			if rate < 1 {
				rq.sampBuf = rq.psamp.SampleInto(rq.sampBuf, bc.Admitted.Pkts, rate)
				qb.Pkts = rq.sampBuf
			}
		case custom.ModeDisabled:
			s.manager.Apply(rq.shed, 0)
			rate = 0
			qb.Pkts = nil
			effRate = 1
		}
	} else if rate < 1 {
		// Shed into the query's scratch slice: the sampled view only has
		// to live until Process and the feature merge below return, so
		// one buffer per query replaces a fresh allocation per bin.
		switch rq.q.Method() {
		case sampling.Flow:
			rq.sampBuf = rq.fsamp.SampleInto(rq.sampBuf, bc.Admitted.Pkts, rate)
		default:
			rq.sampBuf = rq.psamp.SampleInto(rq.sampBuf, bc.Admitted.Pkts, rate)
		}
		qb.Pkts = rq.sampBuf
	}
	bc.Stats.Rates[i] = rate

	// Run the query.
	ops := rq.q.Process(qb, effRate)
	base := s.cfg.Cost.Cycles(ops)
	measured, spiked := s.measure(rq.noise, base)
	bc.Stats.QueryUsed[i] = measured
	bc.exec[i] = execResult{used: measured, alloc: bc.Stats.QueryPred[i] * rate}

	// Update the query's prediction history with the features of
	// its (possibly shed) stream (Algorithm 1 lines 12, 16). The
	// distinct counts come from the shared extractors; the scalar
	// packet/byte features are the query's own. A custom-shedding
	// query whose batch was withheld (rate 0) processed nothing and
	// contributes no observation — pairing full-batch features with
	// its residual cost would poison the model. The same holds for a
	// ModeDisabled query: it saw an empty batch and cost only the
	// per-batch residual, so observing it would fill the MLR history
	// with (empty features, near-zero cost) pairs.
	if s.cfg.Scheme == Predictive {
		customMode := rq.shed != nil && rq.shed.Mode() == custom.ModeCustom
		disabled := rq.shed != nil && rq.shed.Mode() == custom.ModeDisabled
		if !(customMode && rate <= 0) && !disabled {
			// ExtractFromSketch returns rq.ext's scratch vector without
			// allocating; it only has to live until Observe copies it into
			// the predictor's history just below. Safe on the worker pool:
			// rq.ext is query-owned, and the source sketches are only read
			// (bc.sketch and the shed extractor's batch state are frozen by
			// the earlier stages; under the bin pipeline the front stage
			// writes only the other ring generation's sketch).
			var qf features.Vector
			if rate >= 1 || customMode {
				// Stream identical to the full batch: merge, don't rescan.
				qf = rq.ext.ExtractFromSketch(bc.sketch, bc.fv[features.IdxPackets], bc.fv[features.IdxBytes])
			} else {
				qf = rq.ext.ExtractFromSketch(s.shedExt.Sketch(), float64(len(qb.Pkts)), float64(qb.Bytes()))
			}
			if spiked {
				// §3.2.4: measurements corrupted by context switches
				// are replaced with the prediction in the MLR history.
				rq.pred.Observe(qf, bc.Stats.QueryPred[i]*rate)
			} else {
				rq.pred.Observe(qf, measured)
			}
		}
		if rq.shed != nil {
			s.manager.Audit(rq.shed, measured, bc.Stats.QueryPred[i])
		}
	}
}

// detectChange feeds the online drift detector with this bin's feature
// vector and aggregate prediction residual, and on a change verdict
// tells every MLR predictor to discount its pre-change history. The
// residual is a log-ratio so over- and under-prediction are symmetric
// and the detector's thresholds are scale-free. Runs after execute so
// Used/Alloc are final, and unlike feedback it also runs under
// unlimited capacity — drift experiments measure raw accuracy without
// a cycle budget. The detector's own cost (O(features) per bin) is
// not charged to platform overhead; see DESIGN.md §13.
func (s *System) detectChange(bc *BinContext) {
	if s.det == nil || bc.fv == nil {
		return
	}
	residual := math.Log((bc.Stats.Used + 1) / (bc.Stats.Alloc + 1))
	v := s.det.Observe(bc.fv, residual)
	bc.Stats.ChangeScore = v.Score
	bc.Stats.Change = v.Change
	if !v.Change {
		return
	}
	for _, rq := range s.qs {
		if rq != nil && rq.mlr != nil {
			rq.mlr.NotifyChange()
		}
	}
}

// feedback closes the control loop: the governor observes what the bin
// actually cost against what it allocated.
func (s *System) feedback(bc *BinContext) {
	if bc.unlimited {
		return
	}
	s.reactiveDelay = math.Max(0, bc.Stats.Used+bc.overhead+bc.shedCycles-bc.capacity)
	s.gov.Observe(core.Feedback{
		Predicted:   bc.Stats.Predicted,
		AllocCycles: bc.Stats.Alloc,
		UsedCycles:  bc.Stats.Used,
		ShedCycles:  bc.shedCycles,
		Overhead:    bc.overhead,
		QueryAvail:  bc.Stats.Avail,
		BufferLoss:  bc.bufferLoss,
	})
	s.lastConsumed = bc.Stats.Used
}

// measure converts true cycles into a measured value, adding the noise
// and occasional spikes of TSC-based measurement (§3.2.4). Each query
// draws from its own RNG stream so that measurements are independent of
// the order in which the worker pool runs the queries.
func (s *System) measure(rng *hash.XorShift, base float64) (measured float64, spiked bool) {
	m := base
	if s.cfg.NoiseSigma > 0 {
		m *= math.Exp(s.cfg.NoiseSigma*rng.NormFloat64() - s.cfg.NoiseSigma*s.cfg.NoiseSigma/2)
	}
	if s.cfg.SpikeProb > 0 && rng.Float64() < s.cfg.SpikeProb {
		m *= s.cfg.SpikeFactor
		return m, true
	}
	return m, false
}
