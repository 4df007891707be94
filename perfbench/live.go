package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/amlight/intddos/internal/core"
)

// Open-loop limits. A report must be decided within latencyLimit at
// p99, and the backlog must be gone within drainLimit of the stream's
// end, for a rate to count as sustained.
const (
	latencyLimit = 250 * time.Millisecond
	drainLimit   = time.Second
	// settleTimeout bounds the wait for every offered report to be
	// decided or accounted after the stream ends.
	settleTimeout = 30 * time.Second
	// abortLate stops offering once the generator runs this far behind
	// schedule: the rate has already failed, and an unbounded backlog
	// would only stretch the run.
	abortLate = 2 * time.Second
	// checkpointEvery is how often checkpoint-restart writes a
	// checkpoint while the stream runs, in schedule time: the write is
	// triggered as the generator reaches each report due at a multiple
	// of it, so every run checkpoints the same state points.
	checkpointEvery = 2 * time.Second
	// sampleEvery is the backlog gauge sampling period of a traced run.
	sampleEvery = time.Millisecond
)

// decision is what the OnDecision callback records: which report the
// decision answers and when it arrived.
type decision struct {
	key packedKey
	seq int
	at  time.Duration // since the run's clock base
}

// runOpts configures one open-loop run.
type runOpts struct {
	rate float64 // reports per second
	n    int     // reports to offer, from stream index 0
	// windowLen is how many reports make one diagnostic window.
	windowLen int
	// traced times every HandleReport call and samples the backlog
	// gauges; untraced runs do neither.
	traced bool
	// checkpoint writes a checkpoint every checkpointEvery while the
	// stream runs.
	checkpoint bool
}

// runResult is one open-loop run as seen from outside the pipeline.
// Its per-report recordings live off the Go heap (see arena); release
// frees them.
type runResult struct {
	mem       arena
	offered   int
	aborted   bool          // stopped offering early (overload)
	decisions []decision    // in callback order
	lateMs    []float64     // generator lateness per offered report
	streamEnd time.Duration // when the last report was offered
	// backlogGone is when IngestBacklog + JournalLen first read zero
	// after the stream; settled whether every offered report was then
	// decided, shed or abandoned within settleTimeout.
	backlogGone time.Duration
	settled     bool
	cpu         time.Duration // process user+sys from the first report to settling
	// cpuMarks is process CPU when the generator reaches every
	// windowLen-th report, and last at settling:
	// cpuMarks[k+1]-cpuMarks[k] is window k's CPU.
	cpuMarks   []time.Duration
	allocBytes uint64  // heap bytes allocated over the window
	gcCPU      float64 // GC share of process CPU over the window

	// Traced runs only.
	handleNs []float64 // HandleReport duration per call
	backlog  []float64 // IngestBacklog samples
	journal  []float64 // DB.JournalLen samples

	// Checkpoint-writing runs only.
	barrierMs []float64
	writeMs   []float64
	ckptBytes []float64
}

// dueAt is report i's scheduled send time in a run whose first
// report is due at start.
func dueAt(start time.Duration, rate float64, i int) time.Duration {
	return start + time.Duration(float64(i)*1e9/rate)
}

// clock is a monotonic nanosecond clock shared by the generator and
// the decision callback.
type clock struct{ base time.Time }

func (c clock) now() time.Duration { return time.Since(c.base) }

// newRun allocates a run's recording buffers up front, so recording
// allocates nothing while the clock runs.
func newRun(o runOpts) (*runResult, error) {
	res := &runResult{}
	var err error
	res.decisions, err = offHeap[decision](&res.mem, o.n)
	if err == nil {
		res.lateMs, err = offHeap[float64](&res.mem, o.n)
	}
	if err == nil && o.traced {
		res.handleNs, err = offHeap[float64](&res.mem, o.n)
	}
	if err != nil {
		res.release()
		return nil, err
	}
	res.decisions, res.lateMs, res.handleNs = res.decisions[:0], res.lateMs[:0], res.handleNs[:0]
	res.cpuMarks = make([]time.Duration, 0, o.n/o.windowLen+2)
	return res, nil
}

// release frees the run's recordings.
func (r *runResult) release() {
	if err := r.mem.release(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: release run buffers:", err)
	}
}

// drive offers o.n reports of s to live on an open-loop schedule from
// a single generator goroutine (the caller's), recording into res
// (from newRun), waits for the pipeline to settle, and leaves live
// running. live must not be started yet: drive installs the decision
// callback first. It returns the first report's due time.
func drive(live *core.Live, s *stream, o runOpts, res *runResult) (time.Duration, error) {
	if o.n > s.len() {
		return 0, fmt.Errorf("run needs %d reports, stream has %d", o.n, s.len())
	}
	// Start from a collected heap, not an earlier run's garbage.
	runtime.GC()
	clk := clock{base: time.Now()}
	var decMu sync.Mutex
	live.OnDecision = func(d core.Decision) {
		at := clk.now()
		k := pack(d.Key)
		decMu.Lock()
		res.decisions = append(res.decisions, decision{key: k, seq: d.Seq, at: at})
		decMu.Unlock()
	}
	live.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if o.traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(sampleEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					res.backlog = append(res.backlog, float64(live.IngestBacklog()))
					res.journal = append(res.journal, float64(live.DB.JournalLen()))
				}
			}
		}()
	}
	var ckptErr error
	// Checkpoints are written off the generator goroutine, so the
	// open-loop schedule never waits for one; a trigger arriving while
	// a write is in progress waits in the channel's one slot.
	ckptDue := make(chan struct{}, 1)
	ckptEvery := int(o.rate * checkpointEvery.Seconds())
	if o.checkpoint {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-ckptDue:
					if err := writeCheckpoint(live, res); err != nil {
						ckptErr = err
						return
					}
				}
			}
		}()
	}

	cpu0 := cpuTime()
	alloc0, gc0, total0 := allocAndGC()
	start := clk.now() + time.Millisecond
	for i := 0; i < o.n; i++ {
		if i%o.windowLen == 0 {
			res.cpuMarks = append(res.cpuMarks, cpuTime())
		}
		due := dueAt(start, o.rate, i)
		now := clk.now()
		if d := due - now; d > 0 {
			time.Sleep(d)
			now = clk.now()
		}
		if o.checkpoint && i > 0 && i%ckptEvery == 0 {
			select {
			case ckptDue <- struct{}{}:
			default:
			}
		}
		late := now - due
		if late > abortLate {
			res.aborted = true
			break
		}
		res.lateMs = append(res.lateMs, ms(late))
		r, err := s.report(i)
		if err != nil {
			close(stop)
			wg.Wait()
			return start, err
		}
		if o.traced {
			t0 := clk.now()
			live.HandleReport(r)
			res.handleNs = append(res.handleNs, float64(clk.now()-t0))
		} else {
			live.HandleReport(r)
		}
		res.offered++
	}
	res.streamEnd = clk.now()

	deadline := res.streamEnd + settleTimeout
	gone := false
	for clk.now() < deadline {
		if !gone && live.IngestBacklog() == 0 && live.DB.JournalLen() == 0 {
			gone = true
			res.backlogGone = clk.now()
		}
		if gone && outcomes(live) == int64(res.offered) {
			res.settled = true
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.cpuMarks = append(res.cpuMarks, cpuTime())
	res.cpu = res.cpuMarks[len(res.cpuMarks)-1] - cpu0
	alloc1, gc1, total1 := allocAndGC()
	res.allocBytes = alloc1 - alloc0
	if total1 > total0 {
		res.gcCPU = (gc1 - gc0) / (total1 - total0)
	}
	close(stop)
	wg.Wait()
	if ckptErr != nil {
		return start, ckptErr
	}
	// A decision is counted before its callback runs; wait for the
	// callbacks of every counted decision.
	for {
		decMu.Lock()
		n := len(res.decisions)
		decMu.Unlock()
		if n >= live.DecisionCount() || clk.now() > deadline {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	decMu.Lock()
	defer decMu.Unlock()
	return start, nil
}

// writeCheckpoint writes one checkpoint and records its cost.
func writeCheckpoint(live *core.Live, res *runResult) error {
	t0 := time.Now()
	_, n, err := live.WriteCheckpoint()
	if err != nil {
		return fmt.Errorf("write checkpoint: %w", err)
	}
	res.writeMs = append(res.writeMs, ms(time.Since(t0)))
	res.barrierMs = append(res.barrierMs, ms(live.LastCheckpointBarrier()))
	res.ckptBytes = append(res.ckptBytes, float64(n))
	return nil
}

// outcomes is how many polled reports have an outcome: a decision, a
// shed, or an abandonment. Ingest drops happen only after Stop, so
// they are left to the ledger check; this is cheap enough to poll.
func outcomes(live *core.Live) int64 {
	return int64(live.DecisionCount()) + live.Shed.Load() + live.Abandoned.Load()
}

// ingestDropped reads the pipeline's ingest-drop counter.
func ingestDropped(live *core.Live) int64 {
	return live.MetricsSnapshot().Counters["intddos_ingest_dropped_total"]
}

// latencies resolves every decision to the report it answers and
// returns the delays from that report's scheduled send time, in ms,
// grouped by the report's window. A decision that names no offered
// report is an error.
func latencies(res *runResult, s *stream, start time.Duration, o runOpts) ([][]float64, error) {
	out := make([][]float64, (res.offered+o.windowLen-1)/o.windowLen)
	for _, d := range res.decisions {
		i := s.reportOf(d.key, d.seq)
		if i < 0 || i >= res.offered {
			return nil, fmt.Errorf("decision for flow %x seq %d answers no offered report", d.key, d.seq)
		}
		w := i / o.windowLen
		out[w] = append(out[w], ms(d.at-dueAt(start, o.rate, i)))
	}
	return out, nil
}

// cpuPerReport is the process CPU from the first report offered until
// the pipeline settled, in µs per offered report.
func cpuPerReport(res *runResult) float64 {
	return float64(res.cpu.Nanoseconds()) / 1e3 / float64(res.offered)
}

// windowCPU is each full window's CPU per offered report, in µs. The
// last window also carries the drain after the stream.
func windowCPU(res *runResult, windowLen int) []float64 {
	var out []float64
	for k := 0; k+1 < len(res.cpuMarks); k++ {
		n := min(windowLen, res.offered-k*windowLen)
		if n <= 0 {
			break
		}
		out = append(out, float64((res.cpuMarks[k+1]-res.cpuMarks[k]).Microseconds())/float64(n))
	}
	return out
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocAndGC reads cumulative heap allocation and the runtime's GC
// and total CPU estimates.
func allocAndGC() (allocBytes uint64, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
