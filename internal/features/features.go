// Package features implements the traffic-feature extraction of thesis
// §3.2.1: for every 100 ms batch it computes the packet count, the byte
// count and, for each of the ten header aggregates of Table 3.1, four
// item counters — unique items in the batch, new items relative to the
// current measurement interval, repeated items in the batch and repeated
// items relative to the interval — for a total of 42 features.
//
// Distinct counting uses multi-resolution bitmaps so the per-packet cost
// is deterministic: one H3 hash and one bitmap write per aggregate.
package features

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/hash"
	"repro/internal/pkt"
)

// Counter kinds per aggregate, in vector order.
const (
	kindUnique = iota
	kindNew
	kindRepeated    // packets in batch minus unique items
	kindIntRepeated // packets in batch minus new items
	kindsPerAgg
)

// NumFeatures is the length of a feature vector: packets, bytes, and
// four counters for each of the ten aggregates.
const NumFeatures = 2 + pkt.NumAggregates*kindsPerAgg

// Feature vector indices for the two scalar features.
const (
	IdxPackets = 0
	IdxBytes   = 1
)

// Idx returns the vector index of the given counter kind (kindUnique..
// kindIntRepeated) for aggregate a.
func idx(a pkt.Aggregate, kind int) int {
	return 2 + int(a)*kindsPerAgg + kind
}

// IdxUnique returns the index of the unique-items feature of aggregate a.
func IdxUnique(a pkt.Aggregate) int { return idx(a, kindUnique) }

// IdxNew returns the index of the new-items feature of aggregate a.
func IdxNew(a pkt.Aggregate) int { return idx(a, kindNew) }

// IdxRepeated returns the index of the batch-repeated feature of a.
func IdxRepeated(a pkt.Aggregate) int { return idx(a, kindRepeated) }

// IdxIntRepeated returns the index of the interval-repeated feature of a.
func IdxIntRepeated(a pkt.Aggregate) int { return idx(a, kindIntRepeated) }

// Vector is one batch's feature values, indexed by the Idx* helpers.
type Vector []float64

// Name returns a short human-readable name for feature index i, in the
// style the thesis uses in Table 3.2 ("new 5-tuple", "packets", ...).
func Name(i int) string {
	switch i {
	case IdxPackets:
		return "packets"
	case IdxBytes:
		return "bytes"
	}
	a := pkt.Aggregate((i - 2) / kindsPerAgg)
	switch (i - 2) % kindsPerAgg {
	case kindUnique:
		return fmt.Sprintf("unique %s", a)
	case kindNew:
		return fmt.Sprintf("new %s", a)
	case kindRepeated:
		return fmt.Sprintf("repeated %s", a)
	default:
		return fmt.Sprintf("int-repeated %s", a)
	}
}

// Names returns the names of all features in vector order.
func Names() []string {
	out := make([]string, NumFeatures)
	for i := range out {
		out[i] = Name(i)
	}
	return out
}

// Batch-bitmap geometry shared by every Sketch and every Extractor's
// interval bitmaps. MultiRes.MergeFrom requires identical geometry, and
// the sketch/finish split below merges sketches produced by one
// extractor into the interval state of another, so the dimensioning is
// a package constant rather than a per-extractor choice.
const (
	batchBits   = 2048
	batchLevels = 16
)

// Sketch is the per-batch half of feature extraction: one
// multi-resolution bitmap per header aggregate, filled with the hashes
// of a batch's packets, plus the hash staging buffer the fill uses. A
// Sketch carries no interval state, so filling one is a pure function
// of (hash seed, packet slice): it can run ahead of the bin that will
// consume it, and two sketches can be filled concurrently.
//
// The engine's pipelined runner keeps a small ring of sketches so the
// front stage can hash bin N+1 while the back stage still reads bin N's
// sketch (see pkg/loadshed DESIGN.md §10).
//
// The zero value is unusable; construct with NewSketch.
type Sketch struct {
	batch   [pkt.NumAggregates]*bitmap.MultiRes
	hashBuf []uint64 // hash staging, sized to the largest batch seen
	pkts    int      // packets represented by the current contents
}

// NewSketch returns an empty sketch with the package's batch-bitmap
// geometry.
func NewSketch() *Sketch {
	sk := &Sketch{}
	for a := 0; a < pkt.NumAggregates; a++ {
		sk.batch[a] = bitmap.NewMultiRes(batchBits, batchLevels)
	}
	return sk
}

// Reset clears the sketch to empty. Like bitmap.MultiRes.Reset it costs
// O(words the previous fill touched).
func (sk *Sketch) Reset() {
	for a := 0; a < pkt.NumAggregates; a++ {
		sk.batch[a].Reset()
	}
	sk.pkts = 0
}

// Pkts reports how many packets the sketch currently represents.
func (sk *Sketch) Pkts() int { return sk.pkts }

// Ops returns the hash+insert operation count the current contents cost
// (one per packet per aggregate), the unit the engine's cost model
// charges feature extraction in.
func (sk *Sketch) Ops() int64 { return int64(sk.pkts) * pkt.NumAggregates }

// Extractor computes feature vectors from batches. It keeps two bitmaps
// per aggregate: one reset per batch (unique counts, held in an internal
// Sketch) and one reset per measurement interval (new counts); the
// interval bitmap is updated by ORing the batch bitmap into it, exactly
// as described in §3.2.1.
//
// The extractor is built for the fast path: per packet it pays one
// field-wise H3 hash (hash.H3.HashAgg — no key serialization) and one
// bitmap write per aggregate, and the whole extraction allocates
// nothing after warm-up — Extract and ExtractFromBatchOf return an
// internal scratch vector that is overwritten by the next extraction
// call on the same Extractor (copy it to retain it; predict.History
// does). Use ExtractInto to supply your own destination.
//
// Extraction splits into two phases with different sharing rules:
//
//   - SketchInto fills a caller-owned Sketch from a packet slice. It
//     only reads the extractor's hash tables (fixed at construction),
//     so concurrent SketchInto calls on one extractor are safe as long
//     as each targets a distinct Sketch.
//   - FinishSketch folds a filled sketch into the extractor's interval
//     state and produces the feature vector. It mutates the extractor
//     and must stay single-threaded, like every other method.
//
// The zero value is unusable; construct with NewExtractor.
type Extractor struct {
	h3       [pkt.NumAggregates]*hash.H3
	sk       *Sketch // internal sketch used by Extract/ExtractInto
	interval [pkt.NumAggregates]*bitmap.MultiRes
	intEst   [pkt.NumAggregates]float64 // current interval-bitmap estimate
	scratch  Vector                     // returned by Extract/ExtractFromBatchOf

	// Ops counts hash+insert operations performed, so the experiment
	// harness can charge feature extraction its deterministic cost
	// (Table 3.4).
	Ops int64
}

// NewExtractor returns an extractor whose hash functions derive from
// seed.
func NewExtractor(seed uint64) *Extractor {
	e := &Extractor{scratch: make(Vector, NumFeatures), sk: NewSketch()}
	for a := 0; a < pkt.NumAggregates; a++ {
		e.h3[a] = hash.NewH3(seed + uint64(a)*0x9e3779b97f4a7c15)
		e.interval[a] = bitmap.NewMultiRes(batchBits, batchLevels)
	}
	return e
}

// Sketch returns the extractor's internal sketch: the batch bitmaps of
// the most recent Extract/ExtractInto call. The engine hands it to
// queries that merge the full-stream batch state instead of re-hashing
// (ExtractFromSketch); it is overwritten by the next extraction on e.
func (e *Extractor) Sketch() *Sketch { return e.sk }

// StartInterval resets the per-interval state. Call it at every
// measurement-interval boundary before extracting the interval's first
// batch.
func (e *Extractor) StartInterval() {
	for a := 0; a < pkt.NumAggregates; a++ {
		e.interval[a].Reset()
		e.intEst[a] = 0
	}
}

// IntervalEstimates returns the current distinct-count estimate of each
// aggregate's interval bitmap. A freshly rotated extractor reports all
// zeros; regression tests use this to compare an extractor's interval
// state against a fresh-extractor oracle.
func (e *Extractor) IntervalEstimates() []float64 {
	out := make([]float64, pkt.NumAggregates)
	copy(out, e.intEst[:])
	return out
}

// finishAggregate folds aggregate a's freshly filled batch bitmap of
// sk into e's interval state and writes the aggregate's four counters
// into v. It is the per-aggregate tail shared by every extraction path;
// sk is e's own sketch except on the merge-only paths.
func (e *Extractor) finishAggregate(v Vector, sk *Sketch, a int, npkts float64) {
	unique := sk.batch[a].Estimate()
	e.interval[a].MergeFrom(sk.batch[a])
	after := e.interval[a].Estimate()
	newItems := after - e.intEst[a]
	e.intEst[a] = after
	if newItems < 0 {
		newItems = 0
	}
	if unique > npkts {
		unique = npkts
	}
	if newItems > unique {
		newItems = unique
	}
	agg := pkt.Aggregate(a)
	v[IdxUnique(agg)] = unique
	v[IdxNew(agg)] = newItems
	v[IdxRepeated(agg)] = npkts - unique
	v[IdxIntRepeated(agg)] = npkts - newItems
}

// ExtractFromBatchOf computes a feature vector for the batch most
// recently extracted by src, relative to e's own interval state. It
// merges src's per-batch bitmaps into e's interval bitmaps instead of
// re-hashing every packet, which is exactly what a query whose sampling
// rate is 1 can do: its stream is identical to the full stream, so no
// re-extraction is needed (§4.3 — features are only re-extracted "after
// sampling"). Both extractors must share bitmap geometry (they do, by
// construction). The returned vector is e's scratch: it is valid until
// the next extraction call on e.
func (e *Extractor) ExtractFromBatchOf(src *Extractor, npkts, nbytes float64) Vector {
	return e.ExtractFromSketch(src.sk, npkts, nbytes)
}

// ExtractFromBatchOfInto is ExtractFromBatchOf writing into v (grown if
// needed) — the allocation-free form.
func (e *Extractor) ExtractFromBatchOfInto(v Vector, src *Extractor, npkts, nbytes float64) Vector {
	return e.FinishSketchInto(v, src.sk, npkts, nbytes)
}

// ExtractFromSketch is ExtractFromBatchOf taking the batch state as a
// bare Sketch — the form the pipelined engine uses, where the current
// bin's sketch lives in a ring slot rather than inside the extractor
// that would have filled it on the sequential path. The returned vector
// is e's scratch: it is valid until the next extraction call on e.
func (e *Extractor) ExtractFromSketch(sk *Sketch, npkts, nbytes float64) Vector {
	e.scratch = e.FinishSketchInto(e.scratch, sk, npkts, nbytes)
	return e.scratch
}

// FinishSketchInto folds a filled sketch into e's interval state and
// writes the full feature vector into v (grown if needed): the second,
// extractor-mutating half of extraction. npkts and nbytes are the
// scalar features of the stream the sketch summarizes — the caller's
// because on the merge-only paths (rate-1 queries, sampled queries
// reading the shared shed sketch) they describe the query's view of the
// stream, not the sketch's packet count.
func (e *Extractor) FinishSketchInto(v Vector, sk *Sketch, npkts, nbytes float64) Vector {
	v = sized(v)
	v[IdxPackets] = npkts
	v[IdxBytes] = nbytes
	for a := 0; a < pkt.NumAggregates; a++ {
		e.finishAggregate(v, sk, a, npkts)
	}
	return v
}

// Extract computes the feature vector of b. The returned vector is e's
// scratch: it is valid until the next extraction call on e (copy it to
// retain it across batches).
func (e *Extractor) Extract(b *pkt.Batch) Vector {
	e.scratch = e.ExtractInto(e.scratch, b)
	return e.scratch
}

// ExtractInto computes the feature vector of b into v, growing it if
// needed, and returns it. After warm-up the extraction performs no
// allocations: hashing is field-wise (no key serialization), the batch
// bitmaps reset only the words the previous batch touched, and the
// estimates read incrementally maintained popcounts.
//
// Aggregates iterate in the outer loop, packets in the inner one, so
// each pass streams the batch through a single H3 table and a single
// bitmap — one predictable branch and a cache-resident lookup table per
// pass, instead of cycling all ten tables through the cache per packet.
// Bitmap contents are order-independent (pure ORs), so the result is
// bit-identical to per-packet order.
func (e *Extractor) ExtractInto(v Vector, b *pkt.Batch) Vector {
	e.SketchInto(e.sk, b.Pkts)
	e.Ops += e.sk.Ops()
	return e.FinishSketchInto(v, e.sk, float64(b.Packets()), float64(b.Bytes()))
}

// SketchInto resets sk and fills it with the hashes of pkts: the first,
// batch-pure half of extraction. It reads only e's hash tables (fixed
// at construction) and writes only sk, so concurrent calls on the same
// extractor are safe when each targets a distinct sketch — the contract
// the pipelined engine's read-ahead stage builds on. It does not
// advance e.Ops; the consumer charges the cost when the sketch is
// folded into a bin (sk.Ops reports it).
//
// Aggregates iterate in the outer loop, packets in the inner one, for
// the cache behaviour documented on ExtractInto.
func (e *Extractor) SketchInto(sk *Sketch, pkts []pkt.Packet) {
	sk.Reset()
	for a := 0; a < pkt.NumAggregates; a++ {
		sk.hashBuf = e.h3[a].AggHashes(sk.hashBuf, pkts, pkt.Aggregate(a))
		sk.batch[a].InsertMany(sk.hashBuf)
	}
	sk.pkts = len(pkts)
}

// sized returns v resized to NumFeatures, reallocating only when the
// capacity is short.
func sized(v Vector) Vector {
	if cap(v) < NumFeatures {
		return make(Vector, NumFeatures)
	}
	return v[:NumFeatures]
}
