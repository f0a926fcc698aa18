// Package predict implements the resource-usage prediction of thesis
// Chapter 3: an on-line multiple linear regression over a sliding
// history of (feature vector, cost) observations, with Fast
// Correlation-Based Filter feature selection, plus the two baseline
// predictors the chapter compares against (EWMA and simple linear
// regression) and the last-value predictor used by the reactive load
// shedding baseline.
package predict

import (
	"fmt"
	"math"

	"repro/internal/features"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// Predictor estimates the processing cost of a batch from its traffic
// features. Implementations treat the monitored query as a black box:
// they see only feature vectors and realized costs.
type Predictor interface {
	// Predict returns the estimated cost (in cycles) of processing the
	// batch whose features are f.
	Predict(f features.Vector) float64
	// Observe feeds back the measured cost of the batch whose features
	// are f, extending the model's history.
	Observe(f features.Vector, cost float64)
	// Name identifies the method ("mlr", "slr", "ewma", ...).
	Name() string
}

// History is a sliding window of (features, cost) observations — the
// "n" of Equation 3.2. The zero value is unusable; construct with
// NewHistory.
type History struct {
	capacity int
	feats    []features.Vector
	costs    []float64
	next     int
	full     bool

	// weights stays nil until the first DiscountOlder call, so the
	// common unweighted history adds no work to Add and lets the MLR
	// fit take its exact historical code path (bit-identity when change
	// detection is off or has never fired). weighted counts the slots
	// whose weight differs from 1.
	weights  []float64
	weighted int

	// Truncate scratch: slice headers and scalars for the time-order
	// compaction, allocated on the first truncation (a rare event, not
	// the steady state).
	tFeats []features.Vector
	tCosts []float64
	tW     []float64
}

// NewHistory returns a history holding up to n observations.
func NewHistory(n int) *History {
	if n < 1 {
		panic("predict: history capacity must be positive")
	}
	return &History{
		capacity: n,
		feats:    make([]features.Vector, n),
		costs:    make([]float64, n),
	}
}

// Add appends an observation, evicting the oldest when full. The vector
// is copied into a ring slot that is reused across evictions, so a
// warmed-up history never allocates.
func (h *History) Add(f features.Vector, cost float64) {
	slot := h.feats[h.next]
	if cap(slot) < len(f) {
		slot = make(features.Vector, len(f))
	}
	slot = slot[:len(f)]
	copy(slot, f)
	h.feats[h.next] = slot
	h.costs[h.next] = cost
	if h.weights != nil && h.weights[h.next] != 1 {
		h.weights[h.next] = 1
		h.weighted--
	}
	h.next = (h.next + 1) % h.capacity
	if h.next == 0 {
		h.full = true
	}
}

// Len returns the number of stored observations.
func (h *History) Len() int {
	if h.full {
		return h.capacity
	}
	return h.next
}

// Cap returns the history capacity.
func (h *History) Cap() int { return h.capacity }

// Costs returns the stored costs (unspecified order; OLS and Pearson
// are order-invariant). The returned slice is freshly allocated; use
// CostsInto on the hot path.
func (h *History) Costs() []float64 { return h.CostsInto(nil) }

// CostsInto writes the stored costs into dst (grown only when its
// capacity is short) and returns it — the allocation-free form of
// Costs.
func (h *History) CostsInto(dst []float64) []float64 {
	n := h.Len()
	dst = linalg.GrowFloats(dst, n)
	copy(dst, h.costs[:n])
	return dst
}

// Column returns feature j across the stored observations, matching the
// order of Costs. The returned slice is freshly allocated; use
// ColumnInto on the hot path.
func (h *History) Column(j int) []float64 { return h.ColumnInto(nil, j) }

// ColumnInto writes feature j across the stored observations into dst
// (grown only when its capacity is short) and returns it.
func (h *History) ColumnInto(dst []float64, j int) []float64 {
	n := h.Len()
	dst = linalg.GrowFloats(dst, n)
	for i := 0; i < n; i++ {
		dst[i] = h.feats[i][j]
	}
	return dst
}

// MeanCost returns the average stored cost (0 when empty), the cold
// start fallback prediction. The ring's cost slice is averaged directly
// (means are order-invariant), so no copy is made.
func (h *History) MeanCost() float64 {
	return stats.Mean(h.costs[:h.Len()])
}

// Weighted reports whether any stored observation carries a weight
// other than 1 — the gate the MLR fit uses to choose between the plain
// OLS path (bit-identical to the pre-change-detection engine) and the
// weighted solve.
func (h *History) Weighted() bool { return h.weighted > 0 }

// WeightsInto writes the per-observation weights into dst in slot order
// (matching CostsInto/ColumnInto) and returns it. An unweighted history
// yields all ones.
func (h *History) WeightsInto(dst []float64) []float64 {
	n := h.Len()
	dst = linalg.GrowFloats(dst, n)
	if h.weights == nil {
		for i := range dst {
			dst[i] = 1
		}
		return dst
	}
	copy(dst, h.weights[:n])
	return dst
}

// DiscountOlder multiplies the weight of every observation except the
// newest keep by w, so a change verdict can demote the pre-change
// regime to a weak regularizer instead of deleting it outright.
// Repeated discounts compound. The weight array is allocated lazily on
// the first call — change verdicts are rare events, not steady state.
func (h *History) DiscountOlder(keep int, w float64) {
	n := h.Len()
	if keep < 0 {
		keep = 0
	}
	if keep >= n {
		return
	}
	if h.weights == nil {
		h.weights = make([]float64, h.capacity)
		for i := range h.weights {
			h.weights[i] = 1
		}
	}
	for back := keep; back < n; back++ {
		slot := ((h.next-1-back)%h.capacity + h.capacity) % h.capacity
		if h.weights[slot] == 1 {
			h.weighted++
		}
		h.weights[slot] *= w
		if h.weights[slot] == 1 { // w == 1: nothing actually changed
			h.weighted--
		}
	}
}

// Truncate drops every observation except the newest keep, compacting
// them into slots 0..keep-1 in time order. Evicted slots park their
// feature buffers for reuse, so the ring re-fills without reallocating.
func (h *History) Truncate(keep int) {
	n := h.Len()
	if keep < 0 {
		keep = 0
	}
	if keep >= n {
		return
	}
	if h.tFeats == nil {
		h.tFeats = make([]features.Vector, h.capacity)
		h.tCosts = make([]float64, h.capacity)
		h.tW = make([]float64, h.capacity)
	}
	start := 0
	if h.full {
		start = h.next
	}
	for l := 0; l < n; l++ { // time order, oldest first
		s := (start + l) % h.capacity
		h.tFeats[l], h.tCosts[l] = h.feats[s], h.costs[s]
		if h.weights != nil {
			h.tW[l] = h.weights[s]
		} else {
			h.tW[l] = 1
		}
	}
	h.weighted = 0
	for i := 0; i < keep; i++ { // kept: the newest keep, oldest-of-kept first
		h.feats[i], h.costs[i] = h.tFeats[n-keep+i], h.tCosts[n-keep+i]
		if h.weights != nil {
			h.weights[i] = h.tW[n-keep+i]
			if h.weights[i] != 1 {
				h.weighted++
			}
		}
	}
	for i := keep; i < h.capacity; i++ {
		if i < n {
			h.feats[i] = h.tFeats[i-keep] // evicted buffer, parked for reuse
		}
		h.costs[i] = 0
		if h.weights != nil {
			h.weights[i] = 1
		}
	}
	for i := range h.tFeats {
		h.tFeats[i] = nil // don't pin buffers from the scratch
	}
	h.next = keep
	h.full = false
}

// HistoryState is the portable form of a History: the raw ring layout,
// slot order included. The slot order matters for bit-identity — OLS
// and Pearson iterate the ring in slot order, and floating-point sums
// depend on summation order — so a checkpoint must round-trip the ring
// as laid out, not merely the logical window.
type HistoryState struct {
	Feats [][]float64
	Costs []float64
	Next  int
	Full  bool
	// Weights is nil for an unweighted history (including every
	// snapshot taken before change detection existed — gob decodes the
	// missing field as nil, which restores correctly).
	Weights []float64
}

// State deep-copies the ring for a checkpoint.
func (h *History) State() HistoryState {
	st := HistoryState{
		Feats: make([][]float64, h.capacity),
		Costs: make([]float64, h.capacity),
		Next:  h.next,
		Full:  h.full,
	}
	copy(st.Costs, h.costs)
	for i, f := range h.feats {
		if f != nil {
			st.Feats[i] = append([]float64(nil), f...)
		}
	}
	if h.weights != nil {
		st.Weights = append([]float64(nil), h.weights...)
	}
	return st
}

// SetState restores a ring captured by State into a history of the same
// capacity, preserving the slot layout exactly.
func (h *History) SetState(st HistoryState) error {
	if len(st.Feats) != h.capacity || len(st.Costs) != h.capacity {
		return fmt.Errorf("predict: history state capacity %d does not match %d", len(st.Feats), h.capacity)
	}
	if st.Next < 0 || st.Next >= h.capacity {
		return fmt.Errorf("predict: history state next=%d out of range for capacity %d", st.Next, h.capacity)
	}
	if st.Weights != nil && len(st.Weights) != h.capacity {
		return fmt.Errorf("predict: history state has %d weights for capacity %d", len(st.Weights), h.capacity)
	}
	copy(h.costs, st.Costs)
	for i, f := range st.Feats {
		if f == nil {
			h.feats[i] = nil
			continue
		}
		slot := h.feats[i]
		if cap(slot) < len(f) {
			slot = make(features.Vector, len(f))
		}
		slot = slot[:len(f)]
		copy(slot, f)
		h.feats[i] = slot
	}
	if st.Weights == nil {
		h.weights = nil
		h.weighted = 0
	} else {
		if h.weights == nil {
			h.weights = make([]float64, h.capacity)
		}
		copy(h.weights, st.Weights)
		h.weighted = 0
		for _, w := range h.weights {
			if w != 1 {
				h.weighted++
			}
		}
	}
	h.next = st.Next
	h.full = st.Full
	return nil
}

// FCBF selects relevant, non-redundant predictors from cols (one slice
// per candidate feature, all of equal length) for response y. It is the
// thesis' variant of the Fast Correlation-Based Filter (§3.2.3): the
// goodness measure is the absolute Pearson coefficient rather than
// symmetrical uncertainty.
//
// Phase 1 keeps features with |r(X_j, y)| >= threshold (falling back to
// the single best feature if none qualifies). Phase 2 walks the
// survivors in descending relevance and removes every later feature
// whose correlation with an earlier survivor exceeds its own
// correlation with the response.
func FCBF(cols [][]float64, y []float64, threshold float64) []int {
	var sc fcbfScratch
	return sc.selectInto(nil, cols, y, threshold)
}

// fcbfCand is one phase-1 survivor: a feature index and its relevance.
type fcbfCand struct {
	idx int
	r   float64
}

// fcbfScratch holds the FCBF intermediates so the per-bin refit reuses
// them instead of allocating. The zero value is ready to use.
type fcbfScratch struct {
	cands   []fcbfCand
	removed []bool
	mean    []float64 // per-column mean
	ss      []float64 // per-column centred sum of squares
}

// selectInto is FCBF appending the selected indices to out (usually a
// reused slice truncated to zero length) with all intermediates taken
// from the scratch. Same algorithm, same output, no steady-state
// allocation.
func (sc *fcbfScratch) selectInto(out []int, cols [][]float64, y []float64, threshold float64) []int {
	type cand = fcbfCand
	// Each series' Pearson terms are computed once per selection, not
	// once per pair; pearson then accumulates only the cross terms.
	sc.mean, sc.ss = sc.mean[:0], sc.ss[:0]
	for _, col := range cols {
		m, ss := centred(col)
		sc.mean, sc.ss = append(sc.mean, m), append(sc.ss, ss)
	}
	my, syy := centred(y)
	cands := sc.cands[:0]
	best := cand{idx: -1}
	for j, col := range cols {
		r := pearson(col, sc.mean[j], sc.ss[j], y, my, syy)
		if r < 0 {
			r = -r
		}
		if r > best.r {
			best = cand{idx: j, r: r}
		}
		if r >= threshold {
			cands = append(cands, cand{idx: j, r: r})
		}
	}
	sc.cands = cands
	if len(cands) == 0 {
		if best.idx < 0 {
			return out
		}
		return append(out, best.idx)
	}
	// Descending relevance (stable on ties by original index).
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && (cands[k].r > cands[k-1].r ||
			(cands[k].r == cands[k-1].r && cands[k].idx < cands[k-1].idx)); k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}
	if cap(sc.removed) < len(cands) {
		sc.removed = make([]bool, len(cands))
	}
	removed := sc.removed[:len(cands)]
	clear(removed)
	for i := range cands {
		if removed[i] {
			continue
		}
		for j := i + 1; j < len(cands); j++ {
			if removed[j] {
				continue
			}
			a, b := cands[i].idx, cands[j].idx
			r := pearson(cols[a], sc.mean[a], sc.ss[a], cols[b], sc.mean[b], sc.ss[b])
			if r < 0 {
				r = -r
			}
			// The epsilon absorbs rounding in the two Pearson
			// computations; without it an exactly-duplicated column can
			// survive its own redundancy check.
			if r >= cands[j].r-1e-9 {
				removed[j] = true
			}
		}
	}
	for i, c := range cands {
		if !removed[i] {
			out = append(out, c.idx)
		}
	}
	return out
}

// centred returns the mean of xs and its centred sum of squares, each
// accumulated in index order exactly as stats.Pearson does.
func centred(xs []float64) (mean, ss float64) {
	mean = stats.Mean(xs)
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss
}

// pearson is stats.Pearson(xs, ys) given each series' mean and centred
// sum of squares from centred. The cross term accumulates in
// stats.Pearson's order, so the coefficient is bit-identical to it.
func pearson(xs []float64, mx, sxx float64, ys []float64, my, syy float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 || sxx == 0 || syy == 0 {
		return 0
	}
	var sxy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MLR is the thesis' predictor: FCBF feature selection plus an
// SVD-solved multiple linear regression, refitted on every prediction so
// the model tracks traffic changes (§3.1). Construct with NewMLR.
type MLR struct {
	hist      *History
	threshold float64

	// MinHistory is the observation count below which Predict falls
	// back to the mean observed cost (a fresh model with fewer rows
	// than predictors is meaningless).
	MinHistory int

	// ChangeKeep is how many of the newest observations NotifyChange
	// preserves at full weight (0 selects MinHistory). ChangeDiscount
	// is the factor applied to everything older: 0 selects
	// DefaultChangeDiscount, a negative value truncates the old regime
	// outright instead of down-weighting it.
	ChangeKeep     int
	ChangeDiscount float64

	selected []int
	coef     []float64 // intercept followed by per-selected coefficients

	// Fit scratch, reused across predictions so the per-bin refit is
	// allocation-free in steady state (§3.1 refits on every prediction;
	// the thesis requires the prediction subsystem's own overhead to
	// stay negligible).
	y      []float64   // response vector
	colBuf []float64   // flat backing of cols: NumFeatures × n
	cols   [][]float64 // per-feature views into colBuf
	sw     []float64   // sqrt-weights for the weighted solve
	fcbf   fcbfScratch
	a      linalg.Matrix // design matrix, reshaped in place
	ws     linalg.Workspace

	// Op counters for the overhead accounting of Table 3.4.
	FCBFOps int64 // scalar multiplies spent in correlation scans
	FitOps  int64 // scalar multiplies spent in the OLS solve
}

// DefaultHistory and DefaultThreshold are the operating point chosen in
// §3.3.1: 60 batches (6 s) of history and an FCBF threshold of 0.6.
const (
	DefaultHistory   = 60
	DefaultThreshold = 0.6
)

// DefaultChangeDiscount is the weight left on pre-change observations
// after a NotifyChange: small enough that the fresh regime dominates the
// fit immediately (a full 60-slot window of discounted rows amounts to
// well under one effective observation), non-zero so the old rows still
// condition the solve while the new window is thin.
const DefaultChangeDiscount = 0.01

// NewMLR returns an MLR predictor with the given history length and
// FCBF threshold.
func NewMLR(history int, threshold float64) *MLR {
	return &MLR{
		hist:       NewHistory(history),
		threshold:  threshold,
		MinHistory: 8,
	}
}

// Name implements Predictor.
func (m *MLR) Name() string { return "mlr" }

// Observe implements Predictor.
func (m *MLR) Observe(f features.Vector, cost float64) { m.hist.Add(f, cost) }

// History exposes the predictor's observation window (used by the load
// shedding system to overwrite context-switch-corrupted measurements
// with predictions, §3.2.4).
func (m *MLR) History() *History { return m.hist }

// Selected returns the feature indices chosen by the last fit.
func (m *MLR) Selected() []int { return m.selected }

// Predict implements Predictor: select features, fit OLS on the current
// history and evaluate the model at f. The refit runs entirely in the
// predictor's scratch buffers: after warm-up it performs no allocations.
func (m *MLR) Predict(f features.Vector) float64 {
	n := m.hist.Len()
	if n < m.MinHistory {
		return m.hist.MeanCost()
	}
	// Scratch is sized for a full history up front so the n = MinHistory
	// .. capacity ramp-up does not re-grow it at every new length.
	if cap(m.y) < m.hist.Cap() {
		m.y = make([]float64, 0, m.hist.Cap())
	}
	m.y = m.hist.CostsInto(m.y)
	y := m.y
	if cap(m.cols) < features.NumFeatures {
		m.cols = make([][]float64, features.NumFeatures)
	}
	cols := m.cols[:features.NumFeatures]
	if cap(m.colBuf) < features.NumFeatures*m.hist.Cap() {
		m.colBuf = make([]float64, features.NumFeatures*m.hist.Cap())
	}
	m.colBuf = m.colBuf[:features.NumFeatures*n]
	for j := range cols {
		cols[j] = m.hist.ColumnInto(m.colBuf[j*n:j*n:(j+1)*n], j)
	}
	m.selected = m.fcbf.selectInto(m.selected[:0], cols, y, m.threshold)
	m.FCBFOps += int64(n * features.NumFeatures)
	if len(m.selected) == 0 {
		return m.hist.MeanCost()
	}

	// Weighted fit (only after a change verdict down-weighted part of
	// the window): scale the response and the design matrix rows by
	// sqrt(weight), so the ordinary least-squares solve minimizes the
	// weighted residual sum and the discounted pre-change regime barely
	// tugs on the coefficients. Selection above ran on the *raw*
	// columns — Pearson over sqrt-scaled data is dominated by the
	// weight pattern itself (every column "correlates" through the
	// small-row/large-row structure), which floods the model with
	// spurious predictors. An unweighted history skips all of this and
	// takes the historical code path bit for bit.
	weighted := m.hist.Weighted()
	var sw []float64
	if weighted {
		if cap(m.sw) < m.hist.Cap() {
			m.sw = make([]float64, 0, m.hist.Cap())
		}
		m.sw = m.hist.WeightsInto(m.sw)
		sw = m.sw
		for i := 0; i < n; i++ {
			sw[i] = math.Sqrt(sw[i])
			y[i] *= sw[i]
		}
	}

	p := len(m.selected)
	a := &m.a
	a.Reshape(n, p+1)
	for i := 0; i < n; i++ {
		if weighted {
			a.Set(i, 0, sw[i]) // intercept column scaled like the rest
			for k, j := range m.selected {
				a.Set(i, k+1, cols[j][i]*sw[i])
			}
			continue
		}
		a.Set(i, 0, 1)
		for k, j := range m.selected {
			a.Set(i, k+1, cols[j][i])
		}
	}
	m.coef = m.ws.LeastSquares(m.coef[:0], a, y)
	m.FitOps += int64(n * (p + 1) * (p + 1))

	pred := m.coef[0]
	for k, j := range m.selected {
		pred += m.coef[k+1] * f[j]
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// NotifyChange tells the predictor an external change detector decided
// the traffic regime shifted: the newest ChangeKeep observations stay
// at full weight and everything older is discounted by ChangeDiscount
// (or truncated when ChangeDiscount < 0). The next Predict refits on
// the reshaped window — with fewer than MinHistory full-weight rows the
// weighted solve still runs, but the discounted old regime contributes
// almost nothing, so the model effectively restarts from the post-change
// observations.
func (m *MLR) NotifyChange() {
	keep := m.ChangeKeep
	if keep == 0 {
		keep = m.MinHistory
	}
	switch {
	case m.ChangeDiscount < 0:
		m.hist.Truncate(keep)
	case m.ChangeDiscount == 0:
		m.hist.DiscountOlder(keep, DefaultChangeDiscount)
	default:
		m.hist.DiscountOlder(keep, m.ChangeDiscount)
	}
}

// SLR is the simple linear regression baseline (§3.4.1): one fixed
// predictor variable, the packet count unless configured otherwise.
type SLR struct {
	hist    *History
	Feature int
}

// NewSLR returns an SLR predictor over the given history length using
// feature index feat (typically features.IdxPackets).
func NewSLR(history, feat int) *SLR {
	return &SLR{hist: NewHistory(history), Feature: feat}
}

// Name implements Predictor.
func (s *SLR) Name() string { return "slr" }

// History exposes the predictor's observation window for checkpoints.
func (s *SLR) History() *History { return s.hist }

// Observe implements Predictor.
func (s *SLR) Observe(f features.Vector, cost float64) { s.hist.Add(f, cost) }

// Predict implements Predictor using the closed-form OLS line fit.
func (s *SLR) Predict(f features.Vector) float64 {
	n := s.hist.Len()
	if n < 2 {
		return s.hist.MeanCost()
	}
	xs := s.hist.Column(s.Feature)
	ys := s.hist.Costs()
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return my
	}
	b1 := sxy / sxx
	b0 := my - b1*mx
	pred := b0 + b1*f[s.Feature]
	if pred < 0 {
		pred = 0
	}
	return pred
}

// EWMA is the exponentially weighted moving average baseline (§3.4.1,
// Equation 3.4). It ignores traffic features entirely — which is
// exactly why it trails traffic changes.
type EWMA struct {
	avg *stats.EWMA
}

// DefaultEWMAAlpha is the weight the thesis found best (Figure 3.10).
const DefaultEWMAAlpha = 0.3

// NewEWMA returns an EWMA predictor with the given weight.
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{avg: stats.NewEWMA(alpha)}
}

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// State returns the average and seeded flag for a checkpoint.
func (e *EWMA) State() (value float64, seeded bool) {
	return e.avg.Value(), e.avg.Seeded()
}

// Restore sets the average and seeded flag captured by State.
func (e *EWMA) Restore(value float64, seeded bool) { e.avg.Restore(value, seeded) }

// Observe implements Predictor.
func (e *EWMA) Observe(_ features.Vector, cost float64) { e.avg.Update(cost) }

// Predict implements Predictor.
func (e *EWMA) Predict(_ features.Vector) float64 { return e.avg.Value() }

// Last predicts that the next batch costs exactly what the previous one
// did — the implicit model of the reactive load shedding baseline
// (§4.5.1).
type Last struct {
	cost float64
}

// NewLast returns a last-value predictor.
func NewLast() *Last { return &Last{} }

// Name implements Predictor.
func (l *Last) Name() string { return "last" }

// Observe implements Predictor.
func (l *Last) Observe(_ features.Vector, cost float64) { l.cost = cost }

// Predict implements Predictor.
func (l *Last) Predict(_ features.Vector) float64 { return l.cost }
