package predict

import (
	"math"
	"testing"

	"repro/internal/features"
	"repro/internal/hash"
	"repro/internal/stats"
)

// synth fills a feature vector with zeros except the given indices.
func synth(vals map[int]float64) features.Vector {
	v := make(features.Vector, features.NumFeatures)
	for i, x := range vals {
		v[i] = x
	}
	return v
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	if h.Len() != 0 {
		t.Fatal("new history not empty")
	}
	for i := 0; i < 5; i++ {
		h.Add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	costs := h.Costs()
	sum := 0.0
	for _, c := range costs {
		sum += c
	}
	if sum != 2+3+4 {
		t.Fatalf("ring kept wrong elements: %v", costs)
	}
}

func TestHistoryCopiesVectors(t *testing.T) {
	h := NewHistory(2)
	v := synth(map[int]float64{0: 1})
	h.Add(v, 10)
	v[0] = 999
	if got := h.Column(0)[0]; got != 1 {
		t.Fatalf("history aliased caller's vector: %v", got)
	}
}

func TestHistoryPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistory(0)
}

func TestFCBFPhase1Threshold(t *testing.T) {
	rng := hash.NewXorShift(1)
	n := 100
	relevant := make([]float64, n)
	noise := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		relevant[i] = float64(i)
		noise[i] = rng.NormFloat64()
		y[i] = 3*relevant[i] + 0.01*rng.NormFloat64()
	}
	sel := FCBF([][]float64{noise, relevant}, y, 0.6)
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("FCBF selected %v, want [1]", sel)
	}
}

func TestFCBFRemovesRedundant(t *testing.T) {
	n := 100
	x := make([]float64, n)
	dup := make([]float64, n)
	y := make([]float64, n)
	rng := hash.NewXorShift(2)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		dup[i] = 2 * x[i] // perfectly redundant
		y[i] = 5 * x[i]
	}
	sel := FCBF([][]float64{x, dup}, y, 0.6)
	if len(sel) != 1 {
		t.Fatalf("FCBF kept redundant feature: %v", sel)
	}
}

func TestFCBFKeepsComplementaryFeatures(t *testing.T) {
	n := 200
	rng := hash.NewXorShift(3)
	a := make([]float64, n)
	b := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		y[i] = a[i] + b[i]
	}
	sel := FCBF([][]float64{a, b}, y, 0.3)
	if len(sel) != 2 {
		t.Fatalf("FCBF dropped a complementary feature: %v", sel)
	}
}

func TestFCBFFallsBackToBest(t *testing.T) {
	n := 50
	rng := hash.NewXorShift(4)
	weak := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		weak[i] = rng.NormFloat64()
		y[i] = 0.3*weak[i] + rng.NormFloat64()
	}
	sel := FCBF([][]float64{weak}, y, 0.99)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("FCBF fallback = %v, want [0]", sel)
	}
}

func TestFCBFEmptyInput(t *testing.T) {
	if sel := FCBF(nil, nil, 0.5); sel != nil {
		t.Fatalf("FCBF(nil) = %v", sel)
	}
}

func TestMLRColdStartUsesMean(t *testing.T) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	f := synth(map[int]float64{features.IdxPackets: 100})
	if got := m.Predict(f); got != 0 {
		t.Fatalf("cold prediction = %v, want 0", got)
	}
	m.Observe(f, 500)
	m.Observe(f, 700)
	if got := m.Predict(f); got != 600 {
		t.Fatalf("fallback prediction = %v, want mean 600", got)
	}
}

func TestMLRLearnsLinearCost(t *testing.T) {
	// Cost = 1000 + 50*packets + 2*new5tuple, exactly the structure the
	// predictor is built for.
	m := NewMLR(DefaultHistory, DefaultThreshold)
	rng := hash.NewXorShift(5)
	i5 := features.IdxNew(9) // new 5-tuple
	for i := 0; i < 60; i++ {
		pkts := 1000 + 500*rng.Float64()
		nf := 100 + 300*rng.Float64()
		f := synth(map[int]float64{features.IdxPackets: pkts, i5: nf})
		m.Observe(f, 1000+50*pkts+2*nf)
	}
	pkts, nf := 1200.0, 250.0
	f := synth(map[int]float64{features.IdxPackets: pkts, i5: nf})
	want := 1000 + 50*pkts + 2*nf
	got := m.Predict(f)
	if stats.RelErr(got, want) > 0.02 {
		t.Fatalf("prediction = %v, want %v (+/-2%%)", got, want)
	}
	sel := m.Selected()
	foundPkts := false
	for _, j := range sel {
		if j == features.IdxPackets {
			foundPkts = true
		}
	}
	if !foundPkts {
		t.Fatalf("selected features %v missing packets", sel)
	}
}

func TestMLRNeverNegative(t *testing.T) {
	m := NewMLR(20, 0.6)
	rng := hash.NewXorShift(6)
	for i := 0; i < 20; i++ {
		pkts := rng.Float64() * 10
		m.Observe(synth(map[int]float64{features.IdxPackets: pkts}), pkts*2)
	}
	// Extrapolate far below the observed range.
	got := m.Predict(synth(map[int]float64{features.IdxPackets: -1e6}))
	if got < 0 {
		t.Fatalf("negative prediction: %v", got)
	}
}

func TestMLRTracksRegimeChange(t *testing.T) {
	// After the window slides past a cost-regime change, predictions
	// must follow the new regime.
	m := NewMLR(30, DefaultThreshold)
	f := func(p float64) features.Vector {
		return synth(map[int]float64{features.IdxPackets: p})
	}
	rng := hash.NewXorShift(7)
	for i := 0; i < 30; i++ {
		p := 100 + rng.Float64()*50
		m.Observe(f(p), 10*p)
	}
	for i := 0; i < 30; i++ { // new regime: cost doubles
		p := 100 + rng.Float64()*50
		m.Observe(f(p), 20*p)
	}
	got := m.Predict(f(120))
	if stats.RelErr(got, 2400) > 0.05 {
		t.Fatalf("post-change prediction = %v, want ~2400", got)
	}
}

func TestSLRLine(t *testing.T) {
	s := NewSLR(50, features.IdxPackets)
	for i := 0; i < 50; i++ {
		p := float64(100 + i)
		s.Observe(synth(map[int]float64{features.IdxPackets: p}), 7*p+30)
	}
	got := s.Predict(synth(map[int]float64{features.IdxPackets: 200}))
	if stats.RelErr(got, 7*200+30) > 0.01 {
		t.Fatalf("SLR prediction = %v, want %v", got, 7*200+30)
	}
}

func TestSLRConstantFeature(t *testing.T) {
	s := NewSLR(10, features.IdxPackets)
	for i := 0; i < 10; i++ {
		s.Observe(synth(map[int]float64{features.IdxPackets: 5}), 100)
	}
	if got := s.Predict(synth(map[int]float64{features.IdxPackets: 5})); got != 100 {
		t.Fatalf("constant-feature SLR = %v, want 100", got)
	}
}

func TestSLRMissesMultiFeatureCost(t *testing.T) {
	// Costs driven by a feature SLR doesn't watch: MLR should beat SLR.
	slr := NewSLR(DefaultHistory, features.IdxPackets)
	mlr := NewMLR(DefaultHistory, DefaultThreshold)
	rng := hash.NewXorShift(8)
	iBytes := features.IdxBytes
	var fLast features.Vector
	var wantLast float64
	for i := 0; i < 60; i++ {
		pkts := 1000 + rng.Float64()*100 // nearly constant
		bytes := 1e5 + 9e5*rng.Float64() // the real driver
		f := synth(map[int]float64{features.IdxPackets: pkts, iBytes: bytes})
		cost := 0.1 * bytes
		slr.Observe(f, cost)
		mlr.Observe(f, cost)
		fLast, wantLast = f, cost
	}
	errSLR := stats.RelErr(slr.Predict(fLast), wantLast)
	errMLR := stats.RelErr(mlr.Predict(fLast), wantLast)
	if errMLR > errSLR {
		t.Fatalf("MLR (%v) worse than SLR (%v) on byte-driven cost", errMLR, errSLR)
	}
}

func TestEWMAPredictor(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Predict(nil); got != 0 {
		t.Fatalf("cold EWMA = %v", got)
	}
	e.Observe(nil, 100)
	e.Observe(nil, 200)
	if got := e.Predict(nil); got != 150 {
		t.Fatalf("EWMA = %v, want 150", got)
	}
}

func TestEWMALagsStepChange(t *testing.T) {
	// Structural property the thesis exploits: EWMA cannot anticipate a
	// step it hasn't seen.
	e := NewEWMA(DefaultEWMAAlpha)
	for i := 0; i < 100; i++ {
		e.Observe(nil, 100)
	}
	// The traffic doubles; prediction still says 100.
	if got := e.Predict(nil); math.Abs(got-100) > 1e-9 {
		t.Fatalf("EWMA = %v, want 100", got)
	}
	e.Observe(nil, 200)
	got := e.Predict(nil)
	if got >= 200 || got <= 100 {
		t.Fatalf("EWMA after one step = %v, want between 100 and 200", got)
	}
}

func TestLastPredictor(t *testing.T) {
	l := NewLast()
	if l.Predict(nil) != 0 {
		t.Fatal("cold Last != 0")
	}
	l.Observe(nil, 42)
	if l.Predict(nil) != 42 {
		t.Fatal("Last did not track")
	}
	l.Observe(nil, 7)
	if l.Predict(nil) != 7 {
		t.Fatal("Last did not update")
	}
}

func TestPredictorNames(t *testing.T) {
	cases := map[string]Predictor{
		"mlr":  NewMLR(10, 0.6),
		"slr":  NewSLR(10, 0),
		"ewma": NewEWMA(0.3),
		"last": NewLast(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func BenchmarkMLRPredict(b *testing.B) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	rng := hash.NewXorShift(1)
	for i := 0; i < DefaultHistory; i++ {
		f := make(features.Vector, features.NumFeatures)
		for j := range f {
			f[j] = rng.Float64() * 1000
		}
		m.Observe(f, rng.Float64()*1e6)
	}
	f := make(features.Vector, features.NumFeatures)
	for j := range f {
		f[j] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(f)
	}
}

// TestMLRFitZeroAllocSteadyState is the PR 5 allocation guard for the
// prediction path: once the history ring and the fit scratch are warm,
// the refit-on-every-prediction loop (Predict + Observe) must not
// allocate at all.
func TestMLRFitZeroAllocSteadyState(t *testing.T) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	f := make(features.Vector, features.NumFeatures)
	rng := hash.NewXorShift(7)
	fill := func() {
		for j := range f {
			f[j] = rng.Float64() * 1000
		}
	}
	// Warm up: fill the ring past capacity and run fits at full history
	// so every scratch buffer reaches steady-state size.
	for i := 0; i < DefaultHistory+8; i++ {
		fill()
		m.Observe(f, 5000+2*f[features.IdxPackets]+3*f[features.IdxBytes])
		m.Predict(f)
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		m.Predict(f)
		m.Observe(f, 5000+2*f[features.IdxPackets]+3*f[features.IdxBytes])
	})
	if allocs != 0 {
		t.Fatalf("MLR fit/observe steady-state allocations = %v, want 0", allocs)
	}
	if len(m.Selected()) == 0 {
		t.Fatal("warm MLR selected no features; the guard exercised the cold path only")
	}
}

func TestHistoryTruncateKeepsNewest(t *testing.T) {
	h := NewHistory(5)
	for i := 0; i < 7; i++ { // costs 2..6 survive the ring
		h.Add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	h.Truncate(2)
	if h.Len() != 2 {
		t.Fatalf("Len = %d after Truncate(2), want 2", h.Len())
	}
	costs := h.Costs()
	if costs[0] != 5 || costs[1] != 6 {
		t.Fatalf("kept costs %v, want [5 6] (newest, oldest-first)", costs)
	}
	if got := h.Column(0); got[0] != 5 || got[1] != 6 {
		t.Fatalf("kept features %v, want [5 6]", got)
	}
	// The ring refills in place after a truncation.
	for i := 10; i < 14; i++ {
		h.Add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d after refill, want 5", h.Len())
	}
	sum := 0.0
	for _, c := range h.Costs() {
		sum += c
	}
	if sum != 6+10+11+12+13 {
		t.Fatalf("refilled ring holds %v", h.Costs())
	}
	h.Truncate(-1)
	if h.Len() != 0 {
		t.Fatalf("Truncate(-1) left %d observations", h.Len())
	}
}

func TestHistoryDiscountOlder(t *testing.T) {
	h := NewHistory(4)
	if h.Weighted() {
		t.Fatal("fresh history claims weights")
	}
	for i := 0; i < 4; i++ {
		h.Add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	h.DiscountOlder(2, 0.25)
	if !h.Weighted() {
		t.Fatal("discounted history claims unweighted")
	}
	w := h.WeightsInto(nil)
	// Slot order == insertion order here (no wrap): 0,1 discounted.
	want := []float64{0.25, 0.25, 1, 1}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("weights = %v, want %v", w, want)
		}
	}
	// Compounding.
	h.DiscountOlder(3, 0.5)
	if got := h.WeightsInto(nil)[0]; got != 0.125 {
		t.Fatalf("compounded weight = %v, want 0.125", got)
	}
	// Overwriting a discounted slot resets its weight.
	for i := 0; i < 4; i++ {
		h.Add(synth(map[int]float64{0: 9}), 9)
	}
	if h.Weighted() {
		t.Fatalf("weights after full overwrite: %v", h.WeightsInto(nil))
	}
}

func TestHistoryStateCarriesWeights(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 6; i++ {
		h.Add(synth(map[int]float64{0: float64(i)}), float64(i))
	}
	h.DiscountOlder(1, 0.1)
	st := h.State()
	if st.Weights == nil {
		t.Fatal("state dropped the weights")
	}
	h2 := NewHistory(4)
	if err := h2.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	if !h2.Weighted() {
		t.Fatal("restored history claims unweighted")
	}
	a, b := h.WeightsInto(nil), h2.WeightsInto(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored weights %v != %v", b, a)
		}
	}
	// Unweighted states restore as unweighted, including pre-weights
	// snapshots where gob leaves Weights nil.
	h3 := NewHistory(4)
	st.Weights = nil
	if err := h3.SetState(st); err != nil {
		t.Fatalf("SetState (nil weights): %v", err)
	}
	if h3.Weighted() {
		t.Fatal("nil-weight state restored as weighted")
	}
	st.Weights = []float64{1, 1}
	if err := h3.SetState(st); err == nil {
		t.Fatal("SetState accepted a weight-length mismatch")
	}
}

// TestMLRNotifyChangeAdaptsFaster pins the point of the whole hook: after
// a coefficient change, a notified model re-converges on the new regime
// immediately, while the plain window needs the old regime to slide out.
func TestMLRNotifyChangeAdaptsFaster(t *testing.T) {
	run := func(notify bool) []float64 {
		m := NewMLR(DefaultHistory, DefaultThreshold)
		rng := hash.NewXorShift(11)
		f := func() features.Vector {
			return synth(map[int]float64{features.IdxPackets: 1000 + 500*rng.Float64()})
		}
		for i := 0; i < DefaultHistory; i++ {
			v := f()
			m.Observe(v, 10*v[features.IdxPackets])
		}
		// A handful of post-change observations land before any real
		// detector would fire; NotifyChange keeps exactly those.
		for i := 0; i < 8; i++ {
			v := f()
			m.Observe(v, 25*v[features.IdxPackets])
		}
		if notify {
			m.NotifyChange()
		}
		errs := make([]float64, 12)
		for i := range errs {
			v := f()
			want := 25 * v[features.IdxPackets] // new regime
			errs[i] = stats.RelErr(m.Predict(v), want)
			m.Observe(v, want)
		}
		return errs
	}
	off := run(false)
	on := run(true)
	// A few bins in, the notified model must be locked on while the
	// plain window is still dominated by stale observations.
	if on[8] > 0.05 {
		t.Fatalf("notified model still off at bin 8: relerr %v (%v)", on[8], on)
	}
	if off[8] < 3*on[8] {
		t.Fatalf("plain window recovered suspiciously fast: off %v vs on %v", off[8], on[8])
	}
}

// TestMLRUnweightedPathUnchanged pins the bit-identity contract: a model
// whose history never saw a discount predicts exactly like one built
// before weights existed — and a fully overwritten (hence unweighted
// again) history returns to that exact path.
func TestMLRUnweightedPathUnchanged(t *testing.T) {
	mk := func() (*MLR, *hash.XorShift) {
		return NewMLR(30, DefaultThreshold), hash.NewXorShift(13)
	}
	feed := func(m *MLR, rng *hash.XorShift, n int) []float64 {
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := synth(map[int]float64{
				features.IdxPackets: 1000 + 500*rng.Float64(),
				features.IdxBytes:   40000 + 9000*rng.Float64(),
			})
			out = append(out, m.Predict(v))
			m.Observe(v, 3*v[features.IdxPackets]+0.1*v[features.IdxBytes])
		}
		return out
	}
	a, rngA := mk()
	b, rngB := mk()
	pa := feed(a, rngA, 40)
	// b takes a discount + full overwrite detour before the same tail.
	b.NotifyChange()
	pb := feed(b, rngB, 40)
	for i := 31; i < 40; i++ { // history fully overwritten after 30 adds
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs after weights washed out: %v != %v", i, pa[i], pb[i])
		}
	}
	if b.History().Weighted() {
		t.Fatal("overwritten history still weighted")
	}
}

// The weighted refit must be as allocation-free as the plain one once
// its sqrt-weight scratch exists.
func TestMLRWeightedFitZeroAllocSteadyState(t *testing.T) {
	m := NewMLR(DefaultHistory, DefaultThreshold)
	f := make(features.Vector, features.NumFeatures)
	rng := hash.NewXorShift(17)
	fill := func() {
		for j := range f {
			f[j] = rng.Float64() * 1000
		}
	}
	for i := 0; i < DefaultHistory+8; i++ {
		fill()
		m.Observe(f, 5000+2*f[features.IdxPackets])
		m.Predict(f)
	}
	m.NotifyChange() // lazily allocates weights + sqrt scratch
	fill()
	m.Predict(f)
	if !m.History().Weighted() {
		t.Fatal("NotifyChange left the history unweighted")
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		m.Predict(f)
		m.Observe(f, 5000+2*f[features.IdxPackets])
	})
	if allocs != 0 {
		t.Fatalf("weighted MLR fit steady-state allocations = %v, want 0", allocs)
	}
}

// fcbfReference is FCBF with every coefficient from stats.Pearson, the
// way selectInto computed them before it hoisted each series' mean and
// sum of squares out of the pair loops: the oracle for that hoisting.
func fcbfReference(cols [][]float64, y []float64, threshold float64) []int {
	var cands []fcbfCand
	best := fcbfCand{idx: -1}
	for j, col := range cols {
		r := math.Abs(stats.Pearson(col, y))
		if r > best.r {
			best = fcbfCand{idx: j, r: r}
		}
		if r >= threshold {
			cands = append(cands, fcbfCand{idx: j, r: r})
		}
	}
	if len(cands) == 0 {
		if best.idx < 0 {
			return nil
		}
		return []int{best.idx}
	}
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && (cands[k].r > cands[k-1].r ||
			(cands[k].r == cands[k-1].r && cands[k].idx < cands[k-1].idx)); k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}
	removed := make([]bool, len(cands))
	for i := range cands {
		for j := i + 1; j < len(cands) && !removed[i]; j++ {
			if !removed[j] && math.Abs(stats.Pearson(cols[cands[i].idx], cols[cands[j].idx])) >= cands[j].r-1e-9 {
				removed[j] = true
			}
		}
	}
	var out []int
	for i, c := range cands {
		if !removed[i] {
			out = append(out, c.idx)
		}
	}
	return out
}

// fcbfColumns builds a response and candidate columns of length n that
// cover the coefficient's special cases: noise, response-driven
// columns, a constant column, exact and scaled duplicates.
func fcbfColumns(rng *hash.XorShift, n int) ([][]float64, []float64) {
	y := make([]float64, n)
	noise, driven, constant := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range y {
		y[i] = 1e6 * rng.Float64()
		noise[i] = rng.NormFloat64()
		driven[i] = 0.3*y[i] + 1e5*rng.NormFloat64()
		constant[i] = 42
	}
	dup := append([]float64(nil), driven...)
	scaled := make([]float64, n)
	for i := range scaled {
		scaled[i] = -3*driven[i] + 7
	}
	return [][]float64{noise, driven, constant, dup, scaled, append([]float64(nil), y...), noise}, y
}

// TestFCBFMatchesPearsonReference pins selectInto's hoisted Pearson
// terms to stats.Pearson: every coefficient bit-identical on random,
// constant, duplicated and length < 2 columns, and the selection equal
// to the reference FCBF at several thresholds, on a reused scratch.
func TestFCBFMatchesPearsonReference(t *testing.T) {
	rng := hash.NewXorShift(11)
	var sc fcbfScratch
	var out []int
	for _, n := range []int{0, 1, 2, 3, 10, 60} {
		for trial := 0; trial < 20; trial++ {
			cols, y := fcbfColumns(rng, n)
			series := append(append([][]float64(nil), cols...), y, y[:n/2])
			for _, a := range series {
				ma, sa := centred(a)
				for _, b := range series {
					mb, sb := centred(b)
					got, want := pearson(a, ma, sa, b, mb, sb), stats.Pearson(a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d: pearson = %v, stats.Pearson = %v", n, got, want)
					}
				}
			}
			for _, threshold := range []float64{0, 0.1, 0.5, 0.99} {
				out = sc.selectInto(out[:0], cols, y, threshold)
				want := fcbfReference(cols, y, threshold)
				if len(out) != len(want) {
					t.Fatalf("n=%d threshold %v: selected %v, reference %v", n, threshold, out, want)
				}
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("n=%d threshold %v: selected %v, reference %v", n, threshold, out, want)
					}
				}
			}
		}
	}
}
