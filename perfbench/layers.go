package main

import (
	"runtime/metrics"
	"slices"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/spacesaving"
	"rhhh/internal/vswitch"
)

// layerPasses is how many passes of the pool each direct layer call sees.
const layerPasses = 2

// maskSink keeps the masker loop's result live.
var maskSink uint64

// perNs is the mean of the named spans per unit of work, in ns.
func (r *run) perNs(name string, units float64) float64 {
	d, _ := r.tr.total(name)
	return float64(d.Nanoseconds()) / units
}

// meanUs is the mean duration of the named spans in µs (0 when none ran).
func (r *run) meanUs(name string) float64 {
	d, n := r.tr.total(name)
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n) / 1e3
}

// measureLayers is the traced run's per-layer measurement: spans recorded
// during the phases, plus direct calls into the layers that the phases only
// reach through another layer, fed the same inputs.
func (r *run) measureLayers(legs []*dpLeg, v *svc, res *serviceResult) map[string]float64 {
	p, w := r.pool, r.w
	n := float64(len(p.pkts))
	m := map[string]float64{}

	off, sync := legs[0], legs[2]
	m["vswitch.forward_ns"] = r.perNs("vswitch.block.off", float64(off.passes)*n)
	st := off.dp.Stats()
	m["vswitch.emc_hits_per_kpkt"] = float64(st.EMCHits) / float64(st.Received) * 1e3
	m["vswitch.report_us"] = r.meanUs("vswitch.report")
	m["vswitch.collector_apply_us"] = r.meanUs("vswitch.collector_apply")
	rs := sync.rep.Stats()
	m["vswitch.delta_nodes_per_report"] = float64(rs.DeltaNodes) / float64(max(rs.DeltaReports, 1))

	// The engine hook alone, then the engine's batch update alone.
	cfg := engineConfig(w, r.dom, r.seed)
	heng := core.New(r.dom, cfg)
	hook := vswitch.NewEngineHook(heng)
	if w.bytes {
		hook = vswitch.NewEngineHookBytes(heng)
	}
	ueng := core.New(r.dom, cfg)
	for range layerPasses {
		t0 := time.Now()
		for b := 0; b+dpBatch <= len(p.pkts); b += dpBatch {
			hook.OnBatch(p.pkts[b : b+dpBatch])
		}
		t1 := time.Now()
		r.tr.add("vswitch.hook", 0, t0, t1)
		for b := 0; b+dpBatch <= len(p.keys); b += dpBatch {
			if w.bytes {
				ueng.UpdateWeightedBatch(p.keys[b:b+dpBatch], p.ws[b:b+dpBatch])
			} else {
				ueng.UpdateBatch(p.keys[b : b+dpBatch])
			}
		}
		r.tr.add("core.update", 0, t1, time.Now())
	}
	m["vswitch.hook_ns"] = r.perNs("vswitch.hook", layerPasses*n)
	m["core.update_ns"] = r.perNs("core.update", layerPasses*n)
	m["core.samples_per_kpkt"] = float64(ueng.Samples()) / (layerPasses * n) * 1e3

	// The domain masker, per key and node.
	masker := r.dom.Masker()
	var sink uint64
	t0 := time.Now()
	for range layerPasses {
		for _, k := range p.keys {
			for node := range r.dom.Size() {
				sink ^= masker(k, node)
			}
		}
	}
	r.tr.add("hierarchy.mask", 0, t0, time.Now())
	m["hierarchy.mask_ns"] = r.perNs("hierarchy.mask", layerPasses*n*float64(r.dom.Size()))

	// Space Saving's resolve/apply kernel on the fully specified node.
	full := r.dom.FullNode()
	keys := make([]uint64, len(p.keys))
	for i, k := range p.keys {
		keys[i] = masker(k, full)
	}
	sum := spacesaving.New[uint64](core.CountersFor(w.epsilon))
	for range layerPasses {
		for b := 0; b+spacesaving.BatchChunk <= len(keys); b += spacesaving.BatchChunk {
			chunk := keys[b : b+spacesaving.BatchChunk]
			t0 := time.Now()
			sum.Resolve(chunk)
			t1 := time.Now()
			if w.bytes {
				sum.ApplyWeighted(chunk, p.ws[b:b+spacesaving.BatchChunk])
			} else {
				sum.Apply(chunk)
			}
			t2 := time.Now()
			r.tr.add("spacesaving.resolve", 0, t0, t1)
			r.tr.add("spacesaving.apply", 0, t1, t2)
		}
	}
	m["spacesaving.resolve_ns"] = r.perNs("spacesaving.resolve", layerPasses*n)
	m["spacesaving.apply_ns"] = r.perNs("spacesaving.apply", layerPasses*n)
	m["spacesaving.evictions_per_ksample"] = float64(sum.Evictions()) / (layerPasses * n) * 1e3

	r.measureQueryPath(m)

	// rhhh: publication, snapshot read path, query allocations.
	fedPkts := float64(w.servicePasses) * n
	m["rhhh.publish_us"] = r.meanUs("rhhh.publish")
	m["rhhh.feed_ns"] = r.perNs("rhhh.feed_pass", fedPkts)
	m["rhhh.publications_per_mpkt"] = float64(v.s.Worker(0).Epoch()+v.s.Worker(1).Epoch()) / fedPkts * 1e6
	m["rhhh.snapshot_query_us"] = r.meanUs("rhhh.snapshot_query")
	m["rhhh.encode_us"] = r.meanUs("rhhh.encode")
	m["rhhh.decode_us"] = r.meanUs("rhhh.decode")
	m["rhhh.query_allocs"] = queryAllocs(v, p, w)

	// resilience: the timed FS and the store's recovery.
	m["resilience.write_ms"] = r.meanUs("resilience.write") / 1e3
	m["resilience.syncdir_ms"] = r.meanUs("resilience.syncdir") / 1e3
	m["resilience.checkpoint_bytes"] = float64(v.fs.(*timedFS).bytes.Load()) / float64(len(res.checkpoints)+1)
	m["resilience.recover_ms"] = r.meanUs("resilience.recover") / 1e3
	m["core.slack_misses"] = float64(r.slackMisses)
	m["core.coverage_misses"] = float64(r.coverageMisses)
	m["rhhh.restore_mismatches"] = float64(r.restoreMismatches)
	maskSink = sink
	return m
}

// measureQueryPath replays the service phase's query regime on the core
// layer: two engines fed the two workers' sub-streams, their snapshots
// merged, extracted at the query θ, diffed and rendered at evenly spaced
// points of the feed.
func (r *run) measureQueryPath(m map[string]float64) {
	p, w := r.pool, r.w
	cfg := engineConfig(w, r.dom, r.seed)
	engs := [2]*core.Engine[uint64]{core.New(r.dom, cfg), core.New(r.dom, cfg)}
	var (
		snaps  [2]*core.EngineSnapshot[uint64]
		merger core.SnapshotMerger[uint64]
		merged *core.EngineSnapshot[uint64]
		differ = core.NewDiffer[uint64]()
		nres   int
		points int
	)
	every := max(w.servicePasses/16, 1)
	nb := len(p.keys) / serviceBatch
	for pass := 1; pass <= w.servicePasses; pass++ {
		for i := range nb {
			lo, hi := i*serviceBatch, (i+1)*serviceBatch
			if w.bytes {
				engs[i&1].UpdateWeightedBatch(p.keys[lo:hi], p.ws[lo:hi])
			} else {
				engs[i&1].UpdateBatch(p.keys[lo:hi])
			}
		}
		if pass%every != 0 || pass <= w.warmPasses {
			continue
		}
		for k := range engs {
			snaps[k] = engs[k].PublishSnapshot(snaps[k])
		}
		id := r.tr.reserve()
		t0 := time.Now()
		merged = merger.Merge(merged, snaps[0], snaps[1])
		t1 := time.Now()
		out := merged.Output(r.dom, w.theta)
		t2 := time.Now()
		differ.Diff(out, 0)
		t3 := time.Now()
		for _, res := range out {
			_ = r.dom.Format(res.Key, res.Node)
		}
		t4 := time.Now()
		r.tr.add("core.merge", id, t0, t1)
		r.tr.add("core.extract", id, t1, t2)
		r.tr.add("core.diff", id, t2, t3)
		r.tr.add("hierarchy.render", id, t3, t4)
		r.tr.record(id, "core.query_point", 0, t0, t4)
		nres += len(out)
		points++
	}
	m["core.merge_us"] = r.meanUs("core.merge")
	m["core.extract_us"] = r.meanUs("core.extract")
	m["core.diff_us"] = r.meanUs("core.diff")
	m["hierarchy.render_us"] = r.meanUs("hierarchy.render")
	m["core.results_per_query"] = float64(nres) / float64(max(points, 1))
}

// queryAllocs is the median heap allocation count of a Sharded query after
// a fresh publication, measured with every other goroutine quiet.
func queryAllocs(v *svc, p *pool, w workload) float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var allocs []float64
	nb := len(p.keys) / serviceBatch
	for i := range 21 {
		lo, hi := i%nb*serviceBatch, (i%nb+1)*serviceBatch
		for k := range 2 {
			updateBatch(v.s.Worker(k), p, w.bytes, lo, hi)
			v.s.Worker(k).Sync()
		}
		a0 := read()
		v.s.HeavyHitters(w.theta)
		allocs = append(allocs, float64(read()-a0))
	}
	slices.Sort(allocs)
	return allocs[len(allocs)/2]
}
