package main

// ingest.go measures the live ingest layer — LiveSender.SendBatch into
// a ListenLive UDP listener on loopback, the `lsd -serve` ingest path —
// on a replay workload's traffic, which the closed loop bypasses.
// Traffic is sent open-loop on a wall-clock schedule in paced
// sub-bursts; unpaced bursts overflow the socket buffer.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/pkt"
	"repro/internal/trace"
	"repro/pkg/loadshed"
)

const (
	bin = trace.DefaultTimeBin
	// subBursts is how many paced sub-bursts carry one bin's packets;
	// they are spread evenly over the first nine tenths of the bin.
	subBursts = 50
	// lateLimit is the generator lateness (p95 against its schedule)
	// beyond which a send is invalid: the offered load was not the
	// intended one.
	lateLimit = 10 * time.Millisecond
	// ingestBins is how many bins the ingest measurement sends.
	ingestBins = 20
)

// sendStats is what a paced send did.
type sendStats struct {
	busy time.Duration // inside SendBatch
	pkts int64
	late []float64 // lateness of every sub-burst, ms
}

// paceSend sends n bins to a listener that started at t0: bin k's
// packets, from next(k), go out during listener bin k0+k in subBursts
// sub-bursts on a fixed schedule. It records how late each sub-burst
// left.
func paceSend(snd *loadshed.LiveSender, n int, next func(k int) []pkt.Packet, t0 time.Time, k0 int) (sendStats, error) {
	st := sendStats{late: make([]float64, 0, n*subBursts)}
	step := bin * 9 / 10 / subBursts
	for k := 0; k < n; k++ {
		pkts := next(k)
		per := (len(pkts) + subBursts - 1) / subBursts
		for j := 0; j < subBursts; j++ {
			due := t0.Add(time.Duration(k0+k)*bin + time.Duration(j)*step)
			sleepUntil(due)
			now := time.Now()
			st.late = append(st.late, ms(now.Sub(due)))
			lo, hi := min(j*per, len(pkts)), min((j+1)*per, len(pkts))
			if lo == hi {
				continue
			}
			sub := pkt.Batch{Start: time.Duration(k) * bin, Bin: bin, Pkts: pkts[lo:hi]}
			if err := snd.SendBatch(&sub); err != nil {
				return st, fmt.Errorf("send: %w", err)
			}
			st.busy += time.Since(now)
			st.pkts += int64(hi - lo)
		}
	}
	return st, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// ingestReplay sends the first ingestBins bins of batches paced to a
// listener whose batches a bare consumer drains, and reports the
// ingest layer's metrics. It reports false when the send is invalid:
// the listener saw a bad frame, or the generator fell behind its
// schedule.
func ingestReplay(m map[string]metric, batches []pkt.Batch) (bool, error) {
	ls, err := loadshed.ListenLive("udp", "127.0.0.1:0", loadshed.LiveConfig{Bin: bin})
	if err != nil {
		return false, fmt.Errorf("listen: %w", err)
	}
	t0 := time.Now()
	snd, err := loadshed.DialLive("udp", ls.Addr().String())
	if err != nil {
		ls.Close()
		return false, fmt.Errorf("dial: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := ls.NextBatch(); !ok {
				return
			}
		}
	}()
	k0 := int(time.Since(t0)/bin) + 1
	nb := min(ingestBins, len(batches))
	st, sendErr := paceSend(snd, nb, func(k int) []pkt.Packet { return batches[k].Pkts }, t0, k0)
	sleepUntil(t0.Add(time.Duration(k0+nb+1)*bin + 5*time.Millisecond))
	bad, drops := ls.BadFrames(), ls.DroppedBins()
	ls.Close()
	<-done
	snd.Close()
	if sendErr != nil {
		return false, sendErr
	}
	late := quantile(slices.Clone(st.late), 0.95)
	m["trace.send_us_per_kpkt"] = metric{us(st.busy) / (float64(max(st.pkts, 1)) / 1000), "us"}
	m["trace.gen_late_ms_p95"] = metric{late, "ms"}
	m["trace.bad_frames"] = metric{float64(bad), "count"}
	m["trace.dropped_bins"] = metric{float64(drops), "count"}
	return bad == 0 && late <= ms(lateLimit), nil
}
