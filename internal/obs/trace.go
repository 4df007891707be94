package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageTiming is one timed segment of a traced record's journey
// through the pipeline.
type StageTiming struct {
	Stage    string
	Start    time.Time
	Duration time.Duration
}

// Trace is the recorded journey of one sampled flow record. A trace
// is owned by whichever goroutine currently holds the record (the
// pipeline hands records stage to stage over channels, which provides
// the happens-before edges), so its methods take no lock. All methods
// are nil-safe: the unsampled common case carries a nil *Trace.
type Trace struct {
	ID     uint64
	Flow   string
	Began  time.Time
	Ended  time.Time
	Stages []StageTiming
}

// Stage appends a timed segment running from start to now.
func (t *Trace) Stage(name string, start time.Time) {
	t.StageAt(name, start, time.Now())
}

// StageAt appends a timed segment with explicit endpoints.
func (t *Trace) StageAt(name string, start, end time.Time) {
	if t == nil {
		return
	}
	if t.Began.IsZero() || start.Before(t.Began) {
		t.Began = start
	}
	t.Stages = append(t.Stages, StageTiming{Stage: name, Start: start, Duration: end.Sub(start)})
}

// Total returns the wall time from the first stage start to the
// latest recorded endpoint (the newest stage end, or Ended if later).
func (t *Trace) Total() time.Duration {
	if t == nil || len(t.Stages) == 0 {
		return 0
	}
	end := t.Ended
	for _, s := range t.Stages {
		if se := s.Start.Add(s.Duration); se.After(end) {
			end = se
		}
	}
	return end.Sub(t.Began)
}

// String renders the trace as one line, e.g.
//
//	#12 10.0.0.1:7>10.0.0.2:80/tcp total=1.2ms journal=0.3ms queue=0.1ms predict=0.7ms vote=0.1ms
func (t *Trace) String() string {
	if t == nil {
		return "<unsampled>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s total=%v", t.ID, t.Flow, t.Total().Round(time.Microsecond))
	for _, s := range t.Stages {
		fmt.Fprintf(&b, " %s=%v", s.Stage, s.Duration.Round(time.Microsecond))
	}
	return b.String()
}

// Tracer samples one in every N records through the pipeline and
// keeps the most recent completed traces in a ring buffer. The
// sampling decision is a single atomic increment, so the unsampled
// hot path stays cheap.
type Tracer struct {
	name  string
	every uint64
	n     atomic.Uint64
	ids   atomic.Uint64

	mu      sync.Mutex
	ring    []Trace
	next    int
	sampled uint64
}

// newTracer builds a tracer sampling 1-in-every records, retaining
// the last keep completed traces (defaults: 64, 32).
func newTracer(name string, sampleEvery, keep int) *Tracer {
	if sampleEvery <= 0 {
		sampleEvery = 64
	}
	if keep <= 0 {
		keep = 32
	}
	return &Tracer{name: name, every: uint64(sampleEvery), ring: make([]Trace, 0, keep)}
}

// Sample returns a fresh *Trace for 1-in-N calls and nil otherwise.
// The caller labels a sampled trace's Flow, so unsampled calls never
// pay for rendering a flow key. Nil-safe: a nil tracer never samples.
func (t *Tracer) Sample() *Trace {
	if t == nil {
		return nil
	}
	if t.n.Add(1)%t.every != 1 && t.every != 1 {
		return nil
	}
	return &Trace{ID: t.ids.Add(1)}
}

// Finish stamps the trace and stores it in the ring buffer.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.Ended = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampled++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, *tr)
		return
	}
	t.ring[t.next] = *tr
	t.next = (t.next + 1) % cap(t.ring)
}

// Recent returns the retained traces, oldest first.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// SampledCount returns how many traces completed since start.
func (t *Tracer) SampledCount() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sampled
}
