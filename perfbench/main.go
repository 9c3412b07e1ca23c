// Command perfbench is the repository's end-to-end benchmark: one process
// runs the vswitch dataplane legs, the sharded query service under an
// open-loop client, and an audit of every output against exact prefix
// counts, and prints its metrics as the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload paper --seed 1 --seconds 45 --trace 0
//
// See README.md for the workloads, metrics and reference results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"rhhh/internal/hierarchy"
)

const (
	// dpQuantile is the quantile of the per-block rates each dataplane
	// metric reports, and restoreQuantile that of the restore times: the
	// speed reached outside the shared machine's slow spells, which shift
	// a median from run to run.
	dpQuantile      = 0.9
	restoreQuantile = 0.1
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch directory for checkpoints and spans
	commit   string
	// poolSize is the number of prebuilt packets; passDiv divides the
	// service passes and minQueries is the fewest queries a valid run
	// holds (the smoke test shrinks all three).
	poolSize   int
	passDiv    int
	minQueries int
}

func main() {
	o := options{poolSize: 1 << 18, passDiv: 1, minQueries: 200}
	var trace int
	flag.StringVar(&o.workload, "workload", "paper", "workload: paper or flood")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 45, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision for the fingerprint")
	flag.Parse()
	o.trace = trace == 1
	out := bufio.NewWriter(os.Stdout)
	err := runAndReport(o, out)
	out.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runAndReport runs the benchmark and prints the result as the last line.
func runAndReport(o options, out io.Writer) error {
	res, err := execute(o, out)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark run's state.
type run struct {
	w    workload
	seed uint64
	tr   *tracer
	dom  *hierarchy.Domain[uint64]
	pool *pool
	orc  *oracle
	out  io.Writer

	// Operations of each kind (attempted, failed) for the run report, and
	// the checks the result counts: a fixed set per workload, so the failed
	// share is the same in every run.
	kinds             []string
	ops               map[string]*[2]uint64
	checks, failed    uint64
	problems          []string
	faults            []string
	slackMisses       int
	coverageMisses    int
	restoreMismatches int
}

// count adds attempted and failed operations of one kind.
func (r *run) count(kind string, attempted, failed uint64) {
	c, ok := r.ops[kind]
	if !ok {
		c = new([2]uint64)
		r.ops[kind] = c
		r.kinds = append(r.kinds, kind)
	}
	c[0] += attempted
	c[1] += failed
}

// expect is one output check; a failure makes the run's output wrong.
func (r *run) expect(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// expectOp is one output check whose failure is counted as a failed
// operation without making the run wrong: the exact-restore check on the
// fixed-input fixture, which fails in every run of a workload that hits the
// Checkpointer.Restore fault (README.md, known faults).
func (r *run) expectOp(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failed++
		r.faults = append(r.faults, fmt.Sprintf(format, args...))
	}
}

// auditOutput checks a reported set against the oracle after passes whole
// passes: accuracy within the sampling slack S and coverage at θ, short of
// the band the engine's own correction C leaves uncovered.
func (r *run) auditOutput(name string, out []hh, passes uint64) {
	a := r.orc.check(out, r.pool, passes, r.w.vMul*r.dom.Size(), r.w.delta, r.w.theta)
	r.expect(a.outside == 0, "%s: %d of %d reported prefixes outside [Lower−S, Upper+S]: %s", name, a.outside, a.reported, a.firstProblem)
	r.expect(a.uncovered == 0, "%s: %d prefixes at or above θ·N+(S−C) uncovered: %s", name, a.uncovered, a.firstProblem)
	r.slackMisses += a.slackMisses
	r.coverageMisses += a.coverageMisses
	fmt.Fprintf(r.out, "audit %-12s reported=%d outside_S=%d outside_C=%d uncovered=%d uncovered_within_S-C=%d\n",
		name, a.reported, a.outside, a.slackMisses, a.uncovered, a.coverageMisses)
}

func execute(o options, out io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper or flood)", o.workload)
	}
	w.servicePasses = max(w.servicePasses/o.passDiv, 2)
	w.warmPasses = min(w.warmPasses/o.passDiv, w.servicePasses-1)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.work, "run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := &run{w: w, seed: o.seed, tr: newTracer(o.trace), out: out, ops: map[string]*[2]uint64{},
		dom: hierarchy.NewIPv4TwoDim(hierarchy.Bytes)}
	fingerprint(out, o)

	t0 := time.Now()
	r.pool = buildPool(w, o.seed, o.poolSize)
	r.orc = newOracle(r.dom, r.pool)
	fmt.Fprintf(out, "inputs pool=%d passes_service=%d weight_per_pass=%d fwd/drop_per_pass=%d/%d built_in=%.2fs\n",
		o.poolSize, w.servicePasses, r.pool.weight, r.pool.fwd, r.pool.drop, time.Since(t0).Seconds())
	// The restore fixture is not part of the system under test: built
	// before the heap baseline, it is left out of live_heap_mb.
	fix, want, err := newRestoreFixture(w, filepath.Join(work, "fixture"))
	if err != nil {
		return nil, err
	}
	defer fix.close()
	baseHeap := liveHeap()

	// Set-up: the whole system under test. Its build is timed once here and
	// once more after every dataplane pass, with a restore of the fixture
	// timed next to it, so these short timings spread over the run like
	// the dataplane blocks; the later builds are discarded.
	var setups, restores []float64
	setup := func(i int) ([]*dpLeg, *svc, error) {
		t := time.Now()
		legs := buildDataplane(w, r.dom, o.seed, r.tr)
		v, err := buildService(w, o.seed, serviceDir(work, i), r.tr)
		setups = append(setups, time.Since(t).Seconds())
		return legs, v, err
	}
	legs, v, err := setup(0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer v.close()
	sync := legs[2]
	if r.tr == nil {
		sync.link.StartPump(time.Millisecond)
	}
	defer sync.link.Close()

	busy := startBusy()
	err = runDataplane(legs, r.pool, time.Duration(o.seconds*float64(time.Second)*2/3), r.tr, func(pass int) error {
		_, extra, err := setup(pass + 1)
		if extra != nil {
			extra.close()
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		restores = append(restores, r.timedRestore(fix, want, pass == 0))
		return nil
	})
	if err != nil {
		return nil, err
	}
	dpCores := busy()
	busy = startBusy()
	res, err := r.runService(v)
	if err != nil {
		return nil, err
	}
	svcCores := busy()
	fmt.Fprintf(out, "busy_cores dataplane=%.2f service=%.2f nproc=%d\n", dpCores, svcCores, runtime.NumCPU())
	heapMB := float64(liveHeap()-baseHeap) / (1 << 20)
	runtime.KeepAlive(legs)

	r.auditDataplane(legs)
	sync.link.Close() // the pump would share the machine with the restores
	snapshotKB := r.auditService(v, res)
	r.count("queries", uint64(len(res.queries)), 0)
	r.count("watch_deltas", res.watchDeltas, res.watchDropped)
	r.expect(len(res.queries) >= o.minQueries, "service: %d queries, a run holds at least %d", len(res.queries), o.minQueries)

	for _, k := range r.kinds {
		c := r.ops[k]
		r.expect(c[1] == 0, "%s: %d of %d failed", k, c[1], c[0])
	}

	rs := sync.rep.Stats()
	pkts := float64(sync.passes) * float64(len(r.pool.pkts))
	e2e := map[string]metric{
		"dp_mpps":             {quantile(legs[1].rates, dpQuantile), "Mpps"},
		"dp_off_mpps":         {quantile(legs[0].rates, dpQuantile), "Mpps"},
		"dp_sync_mpps":        {quantile(sync.rates, dpQuantile), "Mpps"},
		"ingest_mpps":         {res.ingestMpps, "Mpps"},
		"query_p50_ms":        {quantile(res.queries, 0.50), "ms"},
		"snapshot_p50_ms":     {quantile(res.snapshots, 0.50), "ms"},
		"watch_lag_p50_ms":    {quantile(res.lags, 0.50), "ms"},
		"sync_bytes_per_kpkt": {float64(rs.FullBytes+rs.DeltaBytes) / pkts * 1e3, "B"},
		"snapshot_kb":         {snapshotKB, "KB"},
		"live_heap_mb":        {heapMB, "MB"},
		"setup_s":             {median(setups), "s"},
	}
	// The query tail, the checkpoint latency and the restore time are
	// reported here, not as metrics: on the shared machine they swing with
	// its load from run to run beyond any bound (README.md, Spread).
	fmt.Fprintf(out, "service queries=%d query_p95_ms=%.3f snapshots=%d checkpoints=%d checkpoint_p50_ms=%.3f watch_deltas=%d lag_samples=%d client_late_p50/p95/max_ms=%.3f/%.3f/%.3f\n",
		len(res.queries), quantile(res.queries, 0.95), len(res.snapshots), len(res.checkpoints), quantile(res.checkpoints, 0.5), res.watchDeltas, len(res.lags),
		quantile(res.lateness, 0.5), quantile(res.lateness, 0.95), quantile(res.lateness, 1))
	fmt.Fprintf(out, "service service_time_p50_ms query/snapshot/checkpoint=%.3f/%.3f/%.3f restores=%d restore_ms=%.3f (p10; p50 %.3f) setups=%d setup_p25/p75_ms=%.3f/%.3f\n",
		median(res.serviceTimes[0]), median(res.serviceTimes[1]), median(res.serviceTimes[2]),
		len(restores), quantile(restores, restoreQuantile), median(restores),
		len(setups), quantile(setups, .25)*1e3, quantile(setups, .75)*1e3)
	fmt.Fprintf(out, "dataplane passes=%d blocks=%d blocks_mpps p25/p50/p%.0f off %.3f/%.3f/%.3f hook %.3f/%.3f/%.3f sync %.3f/%.3f/%.3f\n",
		legs[0].passes, len(legs[0].rates), dpQuantile*100,
		quantile(legs[0].rates, .25), median(legs[0].rates), quantile(legs[0].rates, dpQuantile),
		quantile(legs[1].rates, .25), median(legs[1].rates), quantile(legs[1].rates, dpQuantile),
		quantile(sync.rates, .25), median(sync.rates), quantile(sync.rates, dpQuantile))
	fmt.Fprintf(out, "sync reports=%d full=%d delta=%d retransmits=%d resyncs=%d superseded=%d send_errors=%d\n",
		rs.Reports, rs.FullReports, rs.DeltaReports, rs.Retransmits, rs.Resyncs, rs.Superseded, rs.SendErrors)
	printMetrics(out, "e2e", e2e)

	metrics := e2e
	if r.tr != nil {
		layer := r.measureLayers(legs, v, res)
		metrics = map[string]metric{}
		for name, val := range layer {
			metrics[name] = metric{val, layerUnits[name]}
		}
		printMetrics(out, "layer", metrics)
		r.reconcile(out, legs, e2e, layer)
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(r.tr.spans), path)
	}

	for _, k := range r.kinds {
		fmt.Fprintf(out, "ops %-18s attempted=%d failed=%d\n", k, r.ops[k][0], r.ops[k][1])
	}
	fmt.Fprintf(out, "checks attempted=%d failed=%d\n", r.checks, r.failed)
	fmt.Fprintf(out, "core.slack_misses=%d (reported prefixes outside the engine's own correction C) core.coverage_misses=%d (uncovered prefixes within S−C of θ·N)\n", r.slackMisses, r.coverageMisses)
	for _, p := range r.faults {
		fmt.Fprintln(out, "FAILED OPERATION (known fault):", p)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "FAILED CHECK:", p)
	}
	rep := &result{Correct: len(r.problems) == 0, Attempted: r.checks, Failed: r.failed, Metrics: metrics}
	return rep, nil
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = map[string]string{
	"vswitch.forward_ns": "ns", "vswitch.emc_hits_per_kpkt": "count", "vswitch.hook_ns": "ns",
	"vswitch.report_us": "us", "vswitch.collector_apply_us": "us", "vswitch.delta_nodes_per_report": "count",
	"core.update_ns": "ns", "core.samples_per_kpkt": "count", "core.merge_us": "us", "core.extract_us": "us",
	"core.results_per_query": "count", "core.diff_us": "us", "core.slack_misses": "count", "core.coverage_misses": "count",
	"hierarchy.mask_ns": "ns", "hierarchy.render_us": "us",
	"spacesaving.resolve_ns": "ns", "spacesaving.apply_ns": "ns", "spacesaving.evictions_per_ksample": "count",
	"rhhh.publish_us": "us", "rhhh.feed_ns": "ns", "rhhh.publications_per_mpkt": "count", "rhhh.snapshot_query_us": "us",
	"rhhh.encode_us": "us", "rhhh.decode_us": "us", "rhhh.query_allocs": "count",
	"resilience.write_ms": "ms", "resilience.syncdir_ms": "ms", "resilience.checkpoint_bytes": "B",
	"resilience.recover_ms": "ms", "rhhh.restore_mismatches": "count",
}

// reconcile prints how the per-layer costs add up to the end-to-end figures
// of the same (traced) run, with the remainder.
func (r *run) reconcile(out io.Writer, legs []*dpLeg, e2e map[string]metric, l map[string]float64) {
	// The layer costs are means over all blocks, so they add up to the hook
	// leg's mean per-packet time; dp_mpps is a high quantile of the blocks.
	perPkt := r.perNs("vswitch.block.hook", float64(legs[1].passes)*float64(len(r.pool.pkts)))
	fmt.Fprintf(out, "reconcile dataplane: hook leg mean %.1fns/pkt (1/dp_mpps %.1f) = forward %.1f + hook %.1f + remainder %.1f\n",
		perPkt, 1e3/e2e["dp_mpps"].Value, l["vswitch.forward_ns"], l["vswitch.hook_ns"], perPkt-l["vswitch.forward_ns"]-l["vswitch.hook_ns"])
	spp := l["core.samples_per_kpkt"] / 1e3
	kernel := spp * (l["hierarchy.mask_ns"] + l["spacesaving.resolve_ns"] + l["spacesaving.apply_ns"])
	fmt.Fprintf(out, "reconcile update: core.update=%.1fns = samples/pkt %.3f × (mask %.2f + resolve %.2f + apply %.2f) = %.1f + remainder %.1f (skip sampling, batching)\n",
		l["core.update_ns"], spp, l["hierarchy.mask_ns"], l["spacesaving.resolve_ns"], l["spacesaving.apply_ns"], kernel, l["core.update_ns"]-kernel)
	ing := 1e3 / e2e["ingest_mpps"].Value
	pub := l["rhhh.publish_us"] * 1e3 * l["rhhh.publications_per_mpkt"] / 1e6
	feed := l["rhhh.feed_ns"] - pub
	fmt.Fprintf(out, "reconcile ingest: 1/ingest_mpps=%.1fns = worker update %.1f + publish %.1f + remainder %.1f (core.update at the datapath's batch: %.1f)\n",
		ing, feed, pub, ing-feed-pub, l["core.update_ns"])
	q := e2e["query_p50_ms"].Value * 1e3
	parts := l["core.merge_us"] + l["core.extract_us"] + l["hierarchy.render_us"]
	fmt.Fprintf(out, "reconcile query: query_p50=%.1fus = merge %.1f + extract %.1f + render %.1f + remainder %.1f\n",
		q, l["core.merge_us"], l["core.extract_us"], l["hierarchy.render_us"], q-parts)
}

func printMetrics(out io.Writer, label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "%s %-34s %14.4f %s\n", label, k, m[k].Value, m[k].Unit)
	}
}

func fingerprint(out io.Writer, o options) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(out, "machine nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), o.commit)
	fmt.Fprintf(out, "run workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
}

// startBusy starts measuring the process's CPU time; the returned function
// gives the average number of busy cores since the start.
func startBusy() func() float64 {
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	t0, c0 := time.Now(), cpu()
	return func() float64 { return float64(cpu()-c0) / float64(time.Since(t0)) }
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
