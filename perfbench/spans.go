package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's start
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced (end-to-end) run uses it.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reserve returns the id of a span that record will store once it ends, so
// the spans it causes, which end first, can name it as their parent.
func (t *tracer) reserve() int32 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores the finished span id.
func (t *tracer) record(id int32, name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// add records a finished span under a fresh id.
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	t.record(t.reserve(), name, parent, start, end)
}

// total returns the summed duration and count of spans with name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return time.Duration(d), n
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
