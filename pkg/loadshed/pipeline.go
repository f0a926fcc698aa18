package loadshed

// pipeline.go — the two-deep bin pipeline (DESIGN.md §10).
//
// The sequential runner leaves cores idle between execute fan-outs:
// extraction for bin N+1 cannot start until feedback for bin N has run.
// The stages are not independent, though — admit(N+1) reads the
// governor delay that feedback(N) wrote, and Predict(N+1) reads the MLR
// history that execute(N)'s Observe calls appended to — so the pipeline
// overlaps only the one half of the bin that is a pure function of the
// captured batch: sketching (hashing every packet's aggregate keys into
// the batch bitmaps). One front goroutine pulls batches from the source
// and speculatively sketches each wire batch; the back stage (the
// caller's goroutine) then runs admit → … → feedback for bin N in strict
// bin order, exactly as the sequential engine does, with its execute
// fan-out Config.Workers wide, while the front works on bin N+1.
//
// Speculation: the front sketches the wire batch, but extraction is
// defined over the admitted batch. Admission is a prefix — tail drop
// loses the newest packets — so the back stage validates the sketch by
// packet count and, on the rare mis-speculation (a DAG-drop bin),
// re-sketches the admitted prefix in place. Everything downstream of
// the sketch therefore sees bit-identical state for any worker count.
//
// Ring ownership: two binSlots cycle between a free and a ready
// channel. A slot is owned by the front goroutine from free-receive to
// ready-send, and by the back stage from ready-receive to free-send;
// the channel operations carry the happens-before edges, so neither
// side ever reads the other's generation of batch or sketch. Each slot
// owns one Sketch (the two ping-ponged scratch generations); the
// extractor's own internal sketch is untouched in pipelined runs, and
// every consumer reads the bin's sketch through BinContext.sketch,
// which points at whichever generation carried the bin.

import (
	"repro/internal/features"
	"repro/internal/pkt"
	"repro/internal/trace"
)

// pipelined reports whether a run under this config uses the two-deep
// bin pipeline. Workers == 1 (or NoPipeline) selects the strictly
// sequential loop; the two paths are bit-identical, so the choice is
// purely about throughput.
func (c Config) pipelined() bool { return c.Workers >= 2 && !c.NoPipeline }

// binSlot is one generation of the pipeline ring: a captured batch and
// the speculative sketch of its wire packets.
type binSlot struct {
	batch  pkt.Batch
	ok     bool // false: end of trace, batch/sketch are meaningless
	sketch *features.Sketch
}

// pipeline is the ring and the front stage's machinery. Slots and
// channels persist on the System across runs; the front goroutine is
// per-run, so an idle System holds no goroutines.
type pipeline struct {
	slots [2]binSlot
	free  chan *binSlot
	ready chan *binSlot

	// quit/frontDone are per-run teardown channels: stop closes quit so
	// a front goroutine whose back stage was cancelled (and therefore
	// stopped freeing slots) unblocks from its free-receive, and waits on
	// frontDone. On a natural end of trace the front has already
	// returned and the wait is immediate.
	quit      chan struct{}
	frontDone chan struct{}
}

// ensurePipeline lazily builds the persistent half of the pipeline.
func (s *System) ensurePipeline() *pipeline {
	if s.pipe == nil {
		p := &pipeline{
			free:  make(chan *binSlot, 2),
			ready: make(chan *binSlot, 2),
		}
		for i := range p.slots {
			p.slots[i].sketch = features.NewSketch()
		}
		s.pipe = p
	}
	return s.pipe
}

// begin arms the ring for one run and starts the front stage: both
// slots on free (draining whatever a cancelled previous run left in the
// channels) and the front goroutine pulling from src, sketching through
// ext (nil: no sketching, for non-predictive runs). The front exits on
// its own when the source is exhausted, after handing the back stage an
// ok=false slot; a cancelled run instead tears it down through the quit
// channel.
func (p *pipeline) begin(src trace.Source, ext *features.Extractor) {
	for len(p.free) > 0 {
		<-p.free
	}
	for len(p.ready) > 0 {
		<-p.ready
	}
	p.free <- &p.slots[0]
	p.free <- &p.slots[1]
	p.quit = make(chan struct{})
	p.frontDone = make(chan struct{})
	go p.front(src, ext)
}

// stop quits the front stage and waits for it to return. After a
// natural end of trace the front has already exited and stop returns
// immediately; after a cancellation it returns as soon as the front
// observes quit — at its next free-receive, or after its in-flight
// src.NextBatch/sketch completes (bounded for every Source; live
// listeners are additionally closed by the caller to unblock a silent
// link).
func (p *pipeline) stop() {
	close(p.quit)
	<-p.frontDone
}

// front is the pipeline's producer loop: capture the next batch,
// speculatively sketch its wire packets (when ext is non-nil), hand the
// slot over. It is the source's only consumer, so batch order — and
// with it every downstream RNG and history stream — is exactly the
// sequential engine's. Sources hand off stable batches (see
// trace.Source), so the slot holds the batch without copying. SketchInto
// only reads ext's hash tables, so it runs safely beside the back
// stage's use of the same extractor.
func (p *pipeline) front(src trace.Source, ext *features.Extractor) {
	defer close(p.frontDone)
	for {
		// Only the free-receive can block indefinitely (a cancelled back
		// stage stops freeing slots), so it is the quit point. The
		// ready-sends below never block: the channel's buffer equals the
		// slot count, so there is always room for every slot in existence.
		var slot *binSlot
		select {
		case slot = <-p.free:
		case <-p.quit:
			return
		}
		b, ok := src.NextBatch()
		if !ok {
			slot.ok = false
			p.ready <- slot
			return
		}
		slot.batch, slot.ok = b, true
		if ext != nil {
			ext.SketchInto(slot.sketch, b.Pkts)
		}
		p.ready <- slot
	}
}
