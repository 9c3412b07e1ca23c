package main

import (
	"fmt"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rhhh"
	"rhhh/internal/resilience"
)

// Open-loop client schedule: each kind of request is due at a fixed period
// from the start of the timed phase, whatever the previous one took.
const (
	queryEvery      = 40 * time.Millisecond
	snapshotEvery   = 200 * time.Millisecond
	checkpointEvery = 200 * time.Millisecond
	watchEvery      = 50 * time.Millisecond
	clientSpin      = 2 * time.Millisecond
	// tracedPublish is the explicit Worker.Sync interval of the traced run,
	// the same as the default publication cadence of the untraced run.
	tracedPublish = 16384
)

// svc is the service phase's system under test.
type svc struct {
	cfg rhhh.Config
	s   *rhhh.Sharded
	ck  *rhhh.Checkpointer
	fs  resilience.FS
	dir string
}

func shardedConfig(w workload, seed uint64) rhhh.Config {
	return rhhh.Config{Dims: 2, Granularity: rhhh.Byte, Epsilon: w.epsilon, Delta: w.delta,
		V: w.vMul * 25, Seed: seed}
}

func buildService(w workload, seed uint64, dir string, tr *tracer) (*svc, error) {
	v := &svc{cfg: shardedConfig(w, seed), dir: dir, fs: resilience.OSFS{}}
	opts := rhhh.ShardedOptions{}
	if tr != nil {
		// The traced feeder publishes explicitly, so Worker.Sync is timed.
		opts = rhhh.ShardedOptions{PublishPackets: 1 << 62, PublishBatches: 1 << 30}
		v.fs = &timedFS{inner: resilience.OSFS{}, tr: tr}
	}
	s, err := rhhh.NewShardedOptions(v.cfg, 2, opts)
	if err != nil {
		return nil, err
	}
	st, err := resilience.OpenStore(dir, v.fs)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("open store: %w", err)
	}
	v.s, v.ck = s, rhhh.NewCheckpointer(s, st, 0)
	return v, nil
}

// stamp is the feeder's progress: total weight fed and when.
type stamp struct {
	fed uint64
	at  time.Duration
}

type watchEvent struct {
	n  uint64
	at time.Duration
}

// serviceResult is what the service phase measured.
type serviceResult struct {
	ingestMpps                                      float64
	queries, snapshots, checkpoints, lags, lateness []float64 // ms
	serviceTimes                                    [3][]float64
	watchDeltas, watchDropped                       uint64
	snapshotErrs, checkpointErrs                    uint64
	replay                                          map[[2]netip.Prefix]rhhh.HeavyHitter
	final                                           []rhhh.HeavyHitter
}

// runService feeds the pool in whole passes through two Worker handles in
// turn on one feeder goroutine, while one open-loop client queries,
// snapshots and checkpoints and one watch subscription runs.
func (r *run) runService(v *svc) (*serviceResult, error) {
	p, w := r.pool, r.w
	res := &serviceResult{}
	replay := map[[2]netip.Prefix]rhhh.HeavyHitter{}
	workers := [2]*rhhh.Worker{v.s.Worker(0), v.s.Worker(1)}
	nb := len(p.pkts) / serviceBatch
	batchW := make([]uint64, nb)
	for i := range batchW {
		for _, x := range p.ws[i*serviceBatch : (i+1)*serviceBatch] {
			batchW[i] += x
		}
	}
	timeline := make([]stamp, 0, (w.servicePasses-w.warmPasses)*nb+1)
	var (
		fed       uint64
		perWorker [2]uint64
		t0        time.Time
	)
	feed := func(passes int, record bool) {
		for range passes {
			pass, pid := time.Now(), r.tr.reserve()
			for i := range nb {
				k := i & 1
				lo, hi := i*serviceBatch, (i+1)*serviceBatch
				updateBatch(workers[k], p, w.bytes, lo, hi)
				fed += batchW[i]
				if r.tr != nil {
					if perWorker[k] += serviceBatch; perWorker[k]%tracedPublish == 0 {
						s0 := time.Now()
						workers[k].Sync()
						r.tr.add("rhhh.publish", pid, s0, time.Now())
					}
				}
				if record {
					timeline = append(timeline, stamp{fed, time.Since(t0)})
				}
			}
			r.tr.record(pid, "rhhh.feed_pass", 0, pass, time.Now())
		}
	}
	feed(w.warmPasses, false)
	warmFed := fed
	t0 = time.Now()

	var watchMu sync.Mutex
	var events []watchEvent
	sub, err := v.s.Watch(rhhh.WatchOptions{Theta: w.theta, Interval: watchEvery, OnDelta: func(d rhhh.Delta) {
		at := time.Since(t0)
		watchMu.Lock()
		defer watchMu.Unlock()
		events = append(events, watchEvent{d.N, at})
		res.watchDeltas++
		res.watchDropped = d.Dropped
		for _, h := range d.Retired {
			delete(replay, [2]netip.Prefix{h.Src, h.Dst})
		}
		for _, h := range d.Admitted {
			replay[[2]netip.Prefix{h.Src, h.Dst}] = h
		}
		for _, h := range d.Updated {
			replay[[2]netip.Prefix{h.Src, h.Dst}] = h
		}
	}})
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	defer sub.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.client(v, t0, &done, res)
	}()
	feed(w.servicePasses-w.warmPasses, true)
	workers[0].Sync()
	workers[1].Sync()
	feedTime := time.Since(t0)
	done.Store(true)
	wg.Wait()
	res.ingestMpps = float64((w.servicePasses-w.warmPasses)*nb*serviceBatch) / feedTime.Seconds() / 1e6

	// The last tick must observe the final publication before the replay
	// is compared with the full query.
	deadline := time.Now().Add(5 * time.Second)
	for {
		watchMu.Lock()
		last := uint64(0)
		if len(events) > 0 {
			last = events[len(events)-1].n
		}
		watchMu.Unlock()
		if last == fed || time.Now().After(deadline) {
			r.expect(last == fed, "watch: last delta N %d, fed %d", last, fed)
			break
		}
		time.Sleep(time.Millisecond)
	}
	sub.Close()
	v.s.Close() // stops the watch driver; queries keep working
	watchMu.Lock()
	res.replay = maps.Clone(replay)
	for _, e := range events {
		if e.n <= warmFed {
			continue // fed before the timeline starts
		}
		i := sort.Search(len(timeline), func(i int) bool { return timeline[i].fed >= e.n })
		if i < len(timeline) && e.at >= timeline[i].at {
			res.lags = append(res.lags, ms(e.at-timeline[i].at))
		}
	}
	watchMu.Unlock()
	res.final = slices.Clone(v.s.HeavyHitters(w.theta))
	return res, nil
}

// client is the open-loop request generator: three request streams, each on
// a fixed schedule of its own goroutine, so a request waits only behind
// earlier requests of its kind (a checkpoint's fsync never holds a query
// back). Each request is timed from its due time, so a stall is charged to
// the requests behind it. A stream sleeps until clientSpin before the due
// time and then yields in a loop until it, so the client's own timer
// wake-up, which took about half a millisecond on a shared 2-vCPU VM, is
// not charged to the request.
func (r *run) client(v *svc, t0 time.Time, done *atomic.Bool, res *serviceResult) {
	var (
		wg   sync.WaitGroup
		late [3][]float64
	)
	stream := func(kind int, offset, every time.Duration, op func(start time.Time, due time.Duration)) {
		defer wg.Done()
		for due := offset; !done.Load(); due += every {
			if wait := due - clientSpin - time.Since(t0); wait > 0 {
				time.Sleep(wait)
				if done.Load() {
					return
				}
			}
			for time.Since(t0) < due {
				runtime.Gosched()
			}
			start := time.Now()
			late[kind] = append(late[kind], ms(start.Sub(t0)-due))
			op(start, due)
		}
	}
	// Offsets keep the streams apart: queries at 0, 40, 80 ms…, snapshots
	// at 20, 220 ms…, checkpoints at 100, 300 ms….
	wg.Add(3)
	go stream(0, 0, queryEvery, func(start time.Time, due time.Duration) {
		v.s.HeavyHitters(r.w.theta)
		end := time.Now()
		res.queries = append(res.queries, ms(end.Sub(t0)-due))
		res.serviceTimes[0] = append(res.serviceTimes[0], ms(end.Sub(start)))
		r.tr.add("rhhh.query", 0, start, end)
	})
	go stream(1, 20*time.Millisecond, snapshotEvery, func(start time.Time, due time.Duration) {
		snap := v.s.Snapshot()
		s1 := time.Now()
		b, err := snap.MarshalBinary()
		end := time.Now()
		res.snapshots = append(res.snapshots, ms(end.Sub(t0)-due))
		res.serviceTimes[1] = append(res.serviceTimes[1], ms(end.Sub(start)))
		if err != nil {
			res.snapshotErrs++
		}
		if r.tr != nil {
			id := r.tr.reserve()
			r.tr.add("rhhh.snapshot", id, start, s1)
			r.tr.add("rhhh.encode", id, s1, end)
			r.tracedSnapshot(snap, b, id)
			r.tr.record(id, "rhhh.snapshot_request", 0, start, time.Now())
		}
	})
	go stream(2, 100*time.Millisecond, checkpointEvery, func(start time.Time, due time.Duration) {
		id := r.tr.reserve()
		if fs, ok := v.fs.(*timedFS); ok {
			fs.parent = id
		}
		_, err := v.ck.Checkpoint()
		end := time.Now()
		res.checkpoints = append(res.checkpoints, ms(end.Sub(t0)-due))
		res.serviceTimes[2] = append(res.serviceTimes[2], ms(end.Sub(start)))
		if err != nil {
			res.checkpointErrs++
		}
		r.tr.record(id, "resilience.checkpoint", 0, start, end)
	})
	wg.Wait()
	res.lateness = slices.Concat(late[:]...)
}

// Restore fixture: a monitor of the workload's configuration fed fixed
// inputs, independent of the run's seed, through both workers and
// checkpointed the way the service is — one full checkpoint, then a journal
// segment after every further feed. Its restores replay the same
// full+journal in every run, which the service's own last checkpoint, whose
// journal length and contents follow the client's timing, does not.
const (
	fixtureSeed     = 1
	fixturePackets  = 1 << 15
	fixtureSegments = 8
)

// updateBatch feeds packets lo..hi of the pool to one worker.
func updateBatch(wk *rhhh.Worker, p *pool, bytes bool, lo, hi int) {
	if bytes {
		wk.UpdateWeightedBatch(p.srcs[lo:hi], p.dsts[lo:hi], p.ws[lo:hi])
	} else {
		wk.UpdateBatch(p.srcs[lo:hi], p.dsts[lo:hi])
	}
}

// newRestoreFixture builds the fixture in dir and returns it with its answer
// at its last checkpoint.
func newRestoreFixture(w workload, dir string) (*svc, []rhhh.HeavyHitter, error) {
	p := buildPool(w, fixtureSeed, fixturePackets)
	f, err := buildService(w, fixtureSeed, dir, nil)
	if err != nil {
		return nil, nil, err
	}
	for i := range fixtureSegments + 1 {
		for lo := 0; lo+serviceBatch <= len(p.srcs); lo += serviceBatch {
			updateBatch(f.s.Worker(lo/serviceBatch&1), p, w.bytes, lo, lo+serviceBatch)
		}
		f.s.Worker(0).Sync()
		f.s.Worker(1).Sync()
		if full, err := f.ck.Checkpoint(); err != nil || full != (i == 0) {
			f.close()
			return nil, nil, fmt.Errorf("restore fixture: checkpoint %d full=%v: %v", i, full, err)
		}
	}
	return f, slices.Clone(f.s.HeavyHitters(w.theta)), nil
}

// timedRestore restores the fixture's last checkpoint into a fresh monitor,
// as a restarted process would, and times Restore alone. With check, the
// restored monitor must hold the checkpointed weight and answer exactly as
// the fixture did at its last checkpoint.
func (r *run) timedRestore(f *svc, want []rhhh.HeavyHitter, check bool) float64 {
	if r.tr != nil {
		if st, err := resilience.OpenStore(f.dir, resilience.OSFS{}); err == nil {
			t0 := time.Now()
			if _, _, err := st.Recover(); err == nil {
				r.tr.add("resilience.recover", 0, t0, time.Now())
			}
		}
	}
	fresh, ck, err := f.freshRestore()
	if err != nil {
		r.count("restores", 1, 1)
		r.problems = append(r.problems, fmt.Sprintf("restore: %v", err))
		return 0
	}
	defer fresh.Close()
	// A restarted process restores with next to no garbage on its heap:
	// collect the run's first, so a collection triggered by the run's own
	// allocations is not charged to the restore.
	runtime.GC()
	t0 := time.Now()
	ok, err := ck.Restore()
	end := time.Now()
	r.tr.add("rhhh.restore", 0, t0, end)
	r.count("restores", 1, b2u(err != nil || !ok))
	if check {
		r.expect(err == nil && ok && fresh.N() == f.s.N(), "restore check: restored %v with N %d, checkpointed %d (err %v)", ok, fresh.N(), f.s.N(), err)
		got := fresh.HeavyHitters(r.w.theta)
		r.expectOp(mismatches(got, want) == 0, "restore check: %d of %d answers differ from the checkpointed monitor's, %s",
			mismatches(got, want), len(want), firstDiff(got, want))
	}
	return ms(end.Sub(t0))
}

// tracedSnapshot times the inner read-path entry points on the snapshot the
// client just took: a query on it and a decode of its encoding.
func (r *run) tracedSnapshot(snap *rhhh.Snapshot, b []byte, parent int32) {
	t0 := time.Now()
	snap.HeavyHitters(r.w.theta)
	t1 := time.Now()
	r.tr.add("rhhh.snapshot_query", parent, t0, t1)
	var dec rhhh.Snapshot
	if err := dec.UnmarshalBinary(b); err == nil {
		r.tr.add("rhhh.decode", parent, t1, time.Now())
	}
}

// auditService checks the service's final state against the oracle, the
// snapshot round trip, the watch replay and restores from the checkpoint.
func (r *run) auditService(v *svc, res *serviceResult) (snapshotKB float64) {
	p, w := r.pool, r.w
	passes := uint64(w.servicePasses)
	r.expect(v.s.N() == passes*p.weight, "sharded: N %d, fed %d", v.s.N(), passes*p.weight)
	out, err := fromHeavyHitters(r.dom, res.final)
	r.expect(err == nil, "sharded: %v", err)
	r.auditOutput("sharded", out, passes)

	// Replay of the watch deltas equals the final full query.
	same := len(res.replay) == len(res.final)
	for _, h := range res.final {
		g, ok := res.replay[[2]netip.Prefix{h.Src, h.Dst}]
		same = same && ok && g == h
	}
	r.expect(same, "watch: replayed set (%d) differs from the final query (%d)", len(res.replay), len(res.final))

	// Final checkpoint, then the snapshot round trip.
	_, err = v.ck.Checkpoint()
	r.count("checkpoints", uint64(len(res.checkpoints))+1, res.checkpointErrs+b2u(err != nil))
	snap := v.s.Snapshot()
	b, err := snap.MarshalBinary()
	r.count("snapshots", uint64(len(res.snapshots))+1, res.snapshotErrs+b2u(err != nil))
	var dec rhhh.Snapshot
	if err == nil {
		err = dec.UnmarshalBinary(b)
	}
	r.expect(err == nil && slices.Equal(snap.HeavyHitters(w.theta), dec.HeavyHitters(w.theta)),
		"snapshot: decoded snapshot answers differently (err %v)", err)
	r.expect(slices.Equal(snap.HeavyHitters(w.theta), res.final), "snapshot: answers differently from the monitor")
	snapshotKB = float64(len(b)) / 1024

	// Restore from the service's checkpoint as the run left it (a full
	// checkpoint and its journal): the restored monitor must recover the
	// checkpointed weight, and its answer must pass the same audit as the
	// original's. Whether it equals the original's answer is printed and
	// counted, not checked: it depends on the journal this run happened to
	// write (see README.md, known faults); the exact check runs on the
	// restore fixture.
	fresh, ck, err := v.freshRestore()
	ok := false
	if err == nil {
		defer fresh.Close()
		ok, err = ck.Restore()
	}
	r.count("restores", 1, b2u(err != nil || !ok))
	if err == nil {
		r.expect(fresh.N() == v.s.N(), "restore: N %d, checkpointed %d (restored %v)", fresh.N(), v.s.N(), ok)
		got := slices.Clone(fresh.HeavyHitters(w.theta))
		out, err := fromHeavyHitters(r.dom, got)
		r.expect(err == nil, "restore: %v", err)
		r.auditOutput("restored", out, passes)
		r.restoreMismatches = mismatches(got, res.final)
		fmt.Fprintf(r.out, "service restore mismatches=%d %s\n", r.restoreMismatches, firstDiff(got, res.final))
	}
	return snapshotKB
}

// freshRestore builds a new monitor of the service's configuration with a
// checkpointer over the service's store opened afresh: the restart path,
// ready for Restore.
func (v *svc) freshRestore() (*rhhh.Sharded, *rhhh.Checkpointer, error) {
	fresh, err := rhhh.NewSharded(v.cfg, 2)
	if err != nil {
		return nil, nil, err
	}
	st, err := resilience.OpenStore(v.dir, resilience.OSFS{})
	if err != nil {
		fresh.Close()
		return nil, nil, err
	}
	return fresh, rhhh.NewCheckpointer(fresh, st, 0), nil
}

func (v *svc) close() {
	v.s.Close()
	os.RemoveAll(v.dir)
}

// timedFS is the traced run's resilience.FS: the real filesystem with each
// write and directory sync recorded.
type timedFS struct {
	inner  resilience.FS
	tr     *tracer
	parent int32 // the checkpoint span writing
	bytes  atomic.Uint64
}

func (f *timedFS) MkdirAll(dir string) error            { return f.inner.MkdirAll(dir) }
func (f *timedFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }
func (f *timedFS) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }
func (f *timedFS) Rename(o, n string) error             { return f.inner.Rename(o, n) }
func (f *timedFS) Remove(path string) error             { return f.inner.Remove(path) }

func (f *timedFS) WriteFile(path string, data []byte) error {
	t0 := time.Now()
	err := f.inner.WriteFile(path, data)
	f.tr.add("resilience.write", f.parent, t0, time.Now())
	f.bytes.Add(uint64(len(data)))
	return err
}

func (f *timedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.inner.SyncDir(dir)
	f.tr.add("resilience.syncdir", f.parent, t0, time.Now())
	return err
}

func serviceDir(work string, i int) string { return filepath.Join(work, fmt.Sprintf("store%d", i)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mismatches counts the answers that differ between two result lists,
// position by position, plus any length difference.
func mismatches(a, b []rhhh.HeavyHitter) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// firstDiff describes the first difference between two answers.
func firstDiff(a, b []rhhh.HeavyHitter) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("first #%d %s lower %v/%v upper %v/%v cond %v/%v level %d/%d", i, a[i].Text, a[i].Lower, b[i].Lower, a[i].Upper, b[i].Upper, a[i].Cond, b[i].Cond, a[i].Level, b[i].Level)
		}
	}
	if len(a) == len(b) {
		return "none"
	}
	return fmt.Sprintf("%d vs %d results", len(a), len(b))
}
