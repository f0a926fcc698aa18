package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/pkt"
	"repro/pkg/loadshed"
)

// ddos-cluster trace: two links from AsymmetricMix — a header-only link
// carrying an on/off spoofed SYN DDoS at 4x its base rate, and a calm
// CESCA2 link. The mix places the flood window over the middle half of
// ddosDur; the links run on to ddosTrace, so the window is a quarter of
// the bins. With the window at half the bins the median bin fell on
// the edge between the flood-window and calm latency modes and jumped
// between them from seed to seed; now it lies inside the calm mode.
const (
	ddosDur   = 12 * time.Second
	ddosTrace = 24 * time.Second
	ddosScale = 0.7
	ddosLinks = 2
)

// ddosPerBin is each link's volume, about the median over seeds of the
// mix at ddosScale; the links are generated with headroom and thinned
// to it.
var ddosPerBin = [ddosLinks]int{6300, 1900}

// runDDoSCluster is the ddos-cluster workload.
func runDDoSCluster(o options) (*outcome, error) {
	return runReplay(o, func() *rig { return ddosRig(o.seed) })
}

func ddosRig(seed uint64) *rig {
	links := loadshed.AsymmetricMix(seed, ddosDur, ddosScale*headroom, ddosLinks)
	mem := make([][]pkt.Batch, len(links))
	qcfg := func(s int) loadshed.QueryConfig { return loadshed.QueryConfig{Seed: seed + uint64(s)} }
	// Size the machine the way `lsd -shards` does: each link's
	// overhead plus half its full-rate demand (2x overload), summed.
	var total float64
	for s, l := range links {
		l.Config.Duration = ddosTrace
		mem[s] = thin(materialize(noBursts(l.Config)), ddosPerBin[s])
		ovh, demand := loadshed.MeasureLoad(memSource(mem[s]), loadshed.StandardQueries(qcfg(s)), seed+1)
		total += ovh + demand/2
	}
	runners := runtime.GOMAXPROCS(0)
	base := loadshed.Config{
		Scheme:          loadshed.Predictive,
		Strategy:        loadshed.MMFSPkt(),
		Seed:            seed + 2,
		ChangeDetection: true,
	}
	ccfg := loadshed.ClusterConfig{
		Base:          base,
		TotalCapacity: total,
		ShardPolicy:   loadshed.MMFSCPU(),
		Runners:       runners,
	}
	r := &rig{
		shards:   len(links),
		mem:      mem,
		metric:   func(s int) []loadshed.Query { return loadshed.StandardQueries(qcfg(s)) },
		strategy: base.Strategy,
		policy:   ccfg.ShardPolicy,
		total:    total,
		params: map[string]any{
			"mix": "asymmetric", "links": len(links), "scale": ddosScale * headroom, "pkts_per_bin": ddosPerBin,
			"mix_s": ddosDur.Seconds(), "trace_s": ddosTrace.Seconds(), "queries": "standard", "scheme": "predictive",
			"strategy": "mmfs_pkt", "shard_policy": "mmfs_cpu", "change_detection": true,
			"custom_shedding": false, "overload": 2, "runners": runners,
			"shard_workers": 1, "total_capacity": total, "loop": "closed",
		},
	}
	shards := func(srcs []loadshed.Source, wrap func(int, []loadshed.Query) []loadshed.Query) []loadshed.Shard {
		out := make([]loadshed.Shard, len(links))
		for s, l := range links {
			qs := loadshed.StandardQueries(qcfg(s))
			if wrap != nil {
				qs = wrap(s, qs)
			}
			out[s] = loadshed.Shard{Name: l.Name, Source: srcs[s], Queries: qs}
		}
		return out
	}
	memSrcs := func() []loadshed.Source {
		out := make([]loadshed.Source, len(mem))
		for s := range mem {
			out[s] = memSource(mem[s])
		}
		return out
	}
	r.build = func(srcs []loadshed.Source, wrap func(int, []loadshed.Query) []loadshed.Query) func([]loadshed.Sink) {
		c := loadshed.NewCluster(ccfg, shards(srcs, wrap))
		return func(sinks []loadshed.Sink) {
			c.StreamContext(context.Background(), func(s int, _ string) loadshed.Sink { return sinks[s] })
		}
	}
	r.verify = func() []*loadshed.RunResult {
		res := loadshed.NewCluster(ccfg, shards(memSrcs(), nil)).Run()
		out := make([]*loadshed.RunResult, len(res.Shards))
		for s := range res.Shards {
			out[s] = res.Shards[s].Result
		}
		return out
	}
	r.reference = func(s int) *loadshed.RunResult {
		return loadshed.Reference(memSource(mem[s]), loadshed.StandardQueries(qcfg(s)), seed+1)
	}
	r.build(memSrcs(), nil)
	return r
}
