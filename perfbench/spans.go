package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one report share its
// index; a span's parent is the call that made it (-1 for a root).
type span struct {
	name       int32 // index into the tracer's names
	parent     int32
	report     int32 // -1 for work not tied to one report
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	names []string
	spans []span
}

func newTracer(names []string, capacity int) *tracer {
	return &tracer{base: time.Now(), names: names, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, parent, report int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, report: report, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.base)) }

// layerTime is the time a span name accounts for across a run.
type layerTime struct {
	calls int64
	total int64 // ns, span durations
	self  int64 // ns, durations minus child coverage
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// overlapping children are counted once and clipped to the parent.
func selfTimes(spans []span, nNames int) []layerTime {
	out := make([]layerTime, nNames)
	// Children grouped by parent, in start order.
	kids := make([]int32, 0, len(spans))
	for i, sp := range spans {
		if sp.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := spans[kids[a]], spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	covered := make([]int64, len(spans))
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		ps, pe := spans[p].start, spans[p].end
		var cov, curS, curE int64
		open := false
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			s, e := max(spans[kids[i]].start, ps), min(spans[kids[i]].end, pe)
			if e <= s {
				continue
			}
			switch {
			case !open:
				curS, curE, open = s, e, true
			case s <= curE:
				curE = max(curE, e)
			default:
				cov += curE - curS
				curS, curE = s, e
			}
		}
		if open {
			cov += curE - curS
		}
		covered[p] = cov
	}
	for i, sp := range spans {
		d := sp.end - sp.start
		lt := &out[sp.name]
		lt.calls++
		lt.total += d
		lt.self += d - covered[i]
	}
	return out
}

// dump writes every span as a tab-separated line: id, name, parent,
// report, start ns, end ns.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tname\tparent\treport\tstart_ns\tend_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, t.names[sp.name], sp.parent, sp.report, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
