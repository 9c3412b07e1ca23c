// Package telemetry is the zero-allocation metrics layer for the RHHH
// service surfaces. It follows the shared-nothing ownership model of the
// ingest path (see sharded.go): hot-path counters are plain uint64 fields
// owned by a single goroutine, and only at an existing publication boundary
// (worker snapshot publish, watch tick, reporter tick, window flush) are
// they stored into atomic publication cells. Scrapes read exclusively from
// those cells — or from closures over already-synchronized state — so the
// exposition path never takes a lock the hot path can contend on, and the
// hot path never executes an atomic read-modify-write. Where a group of
// cells must be read as one publication (a histogram's buckets and count,
// a block registered with Registry.Block), the owner brackets its stores
// with a Seq and the scrape retries its copy instead.
//
// Every entry point is nil-safe: a nil *Registry (telemetry.Disabled) makes
// instrumentation a no-op, so an uninstrumented path pays one predictable
// branch and nothing else.
package telemetry

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
)

// Cell is a published metric value: one atomic word, written by the owning
// goroutine at publication boundaries and read by scrapers. Cells are not
// padded — they are written a few times per second at most, so false
// sharing is irrelevant, and stat blocks pack dozens of them.
type Cell struct{ v atomic.Uint64 }

// Store publishes v. Called by the owner (or under the owner's lock).
func (c *Cell) Store(v uint64) { c.v.Store(v) }

// Add atomically adds d. Intended for mutex-serialized slow paths (query
// bookkeeping, tick accounting) — never for the packet path.
func (c *Cell) Add(d uint64) { c.v.Add(d) }

// Load returns the last published value. Safe from any goroutine.
func (c *Cell) Load() uint64 { return c.v.Load() }

// Seq is the sequence word of a multi-cell publication: a seqlock whose
// writer never waits. The owner turns the word odd, stores the group's
// cells, and turns it even again; a reader copies the cells and retries
// while the word is odd or has moved, so its copy never combines two
// publications. The owner does one load and two stores, never an atomic
// read-modify-write.
type Seq struct{ v atomic.Uint64 }

// Begin opens a publication and returns the word End stores. Owner only.
func (s *Seq) Begin() uint64 {
	n := s.v.Load() + 1
	s.v.Store(n) // odd: a publication is in progress
	return n + 1
}

// End closes the publication Begin opened. Owner only.
func (s *Seq) End(next uint64) { s.v.Store(next) }

// readBegin waits out an in-progress publication and returns the even word
// a reader's copy is checked against.
func (s *Seq) readBegin() uint64 {
	for {
		if n := s.v.Load(); n&1 == 0 {
			return n
		}
		runtime.Gosched()
	}
}

// readRetry reports whether a publication began since readBegin returned n,
// i.e. whether the copy made in between may be torn.
func (s *Seq) readRetry(n uint64) bool { return s.v.Load() != n }

// Counter is a hot-path counter: a plain uint64 the owning goroutine
// increments without synchronization, plus the cell it publishes through.
// Inc/Add/Publish must only be called by the owner; Value may be called by
// anyone and sees the last published state.
type Counter struct {
	n   uint64
	pub Cell
}

// Inc adds 1 to the live count. Owner only.
func (c *Counter) Inc() { c.n++ }

// Add adds d to the live count. Owner only.
func (c *Counter) Add(d uint64) { c.n += d }

// Live returns the unpublished owner-side count. Owner only.
func (c *Counter) Live() uint64 { return c.n }

// Publish stores the live count into the publication cell. Owner only.
func (c *Counter) Publish() { c.pub.Store(c.n) }

// Value returns the last published count. Safe from any goroutine.
func (c *Counter) Value() uint64 { return c.pub.Load() }

// Cumulative log2 histogram geometry: finite bucket i holds samples with
// duration ≤ 1024<<i nanoseconds, i.e. boundaries run 1.024 µs .. ~2.15 s;
// anything slower lands in the implicit +Inf bucket. This spans a watch
// tick (~1 µs idle, ~123 µs busy) through a multi-second window merge.
const (
	// HistBuckets is the number of finite histogram buckets.
	HistBuckets = 22

	histRingBits = 8
	histRingLen  = 1 << histRingBits
	histRingMask = histRingLen - 1
)

// BucketBound returns the inclusive upper bound of finite bucket i, in
// nanoseconds.
func BucketBound(i int) uint64 { return 1024 << uint(i) }

// bucketOf maps a duration in nanoseconds to its finite bucket, or
// HistBuckets for the +Inf overflow.
func bucketOf(ns uint64) int {
	if ns <= 1024 {
		return 0
	}
	i := bits.Len64(ns-1) - 10
	if i >= HistBuckets {
		return HistBuckets
	}
	return i
}

// Histogram is a ring-buffered latency histogram. Observe is two plain
// stores by the owning goroutine (raw nanosecond sample into a power-of-two
// ring); the log2 bucketing happens when the ring fills or at Publish, and
// the bucketed totals are then stored into atomic cells for scrapers. As
// with Counter, all methods except the published readers are owner-only.
//
// Publish stores the buckets, sum and count under one sequence word (see
// Seq), and a scrape copies them in one read that retries while a
// publication overlaps it. So each scrape renders a histogram from a single
// publication: its buckets are cumulative and _count equals the +Inf
// bucket. The owner never blocks; only the reader retries.
type Histogram struct {
	ring  [histRingLen]uint64
	wpos  uint64
	rpos  uint64
	count uint64
	sumNs uint64
	cnt   [HistBuckets]uint64

	seq      Seq
	pubCnt   [HistBuckets]Cell
	pubCount Cell
	pubSum   Cell
}

// Observe records one duration. Owner only.
func (h *Histogram) Observe(d time.Duration) {
	h.ring[h.wpos&histRingMask] = uint64(d)
	h.wpos++
	if h.wpos-h.rpos == histRingLen {
		h.drain()
	}
}

// ObserveSince records time elapsed since t0. Owner only.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// drain buckets every pending ring sample. Samples past the last finite
// bound count only towards count: the +Inf bucket is rendered from it.
func (h *Histogram) drain() {
	for ; h.rpos != h.wpos; h.rpos++ {
		ns := h.ring[h.rpos&histRingMask]
		if b := bucketOf(ns); b < HistBuckets {
			h.cnt[b]++
		}
		h.sumNs += ns
		h.count++
	}
}

// Publish drains the ring and stores the bucketed totals into the
// publication cells as one publication. Owner only.
func (h *Histogram) Publish() {
	h.drain()
	end := h.seq.Begin()
	for i := range h.cnt {
		h.pubCnt[i].Store(h.cnt[i])
	}
	h.pubSum.Store(h.sumNs)
	h.pubCount.Store(h.count)
	h.seq.End(end)
}

// histView is one publication of a histogram, copied out by load.
type histView struct {
	cnt   [HistBuckets]uint64
	count uint64
	sumNs uint64
}

// load copies the last complete publication into v. Safe from any
// goroutine; it retries while a publication overlaps the copy.
func (h *Histogram) load(v *histView) {
	for {
		n := h.seq.readBegin()
		for i := range v.cnt {
			v.cnt[i] = h.pubCnt[i].Load()
		}
		v.count = h.pubCount.Load()
		v.sumNs = h.pubSum.Load()
		if !h.seq.readRetry(n) {
			return
		}
	}
}

// Count returns the published sample count. Safe from any goroutine.
func (h *Histogram) Count() uint64 { return h.pubCount.Load() }

// SumSeconds returns the published sum of all samples in seconds. Safe
// from any goroutine.
func (h *Histogram) SumSeconds() float64 { return float64(h.pubSum.Load()) / 1e9 }

// publishedBucket returns the published count of finite bucket i.
func (h *Histogram) publishedBucket(i int) uint64 { return h.pubCnt[i].Load() }
