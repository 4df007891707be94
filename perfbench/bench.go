package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/core"
)

const (
	// fixedRate is every workload's offered load: about 45% of the
	// rate at which the default pipeline starts shedding on 2 cores.
	fixedRate = 15000.0
	// flowIdleTimeout is flood-churn's eviction TTL.
	flowIdleTimeout = sweepEvery
	// checkpointFullEvery is the command line's default full-snapshot
	// cadence; the deltas between fulls make restore a chain restore.
	checkpointFullEvery = 16
	// Set-up time is the median of cold starts made in two phases, one
	// before and one after the sustained-rate search, each at least
	// setupReps cold starts long and at least setupBudget: a cold start
	// takes under a millisecond without a checkpoint to restore, and a
	// median over samples that far apart rides out a burst of host
	// contention.
	setupReps   = 8
	setupBudget = time.Second
	// restoreSample is how many pre-stop flow records are compared
	// after a restart.
	restoreSample = 256
	// windowSeconds is the window of the fixed-rate run's diagnostic
	// per-window latency and CPU medians. The gated figures are taken
	// over the whole run, so periodic work (checkpoints, eviction
	// sweeps) always counts.
	windowSeconds = 0.5
	// probeSeconds is how much of the stream runs before the one
	// checkpoint of a workload that does not checkpoint.
	probeSeconds = 2.0
	// replaySeconds caps the traced replay at this much of the
	// schedule: enough calls for every per-call figure and, on
	// flood-churn, two sweeps, with a span dump of tens of MB.
	replaySeconds = 6
)

// bench is one invocation: a workload at a seed.
type bench struct {
	w       workload
	seed    int64
	seconds int
	dir     string
	rep     report

	s      *stream
	bundle string // saved ensemble
}

// prepare generates the stream and makes sure the ensemble is trained
// and saved. Nothing here is timed.
func (b *bench) prepare() error {
	c, pool, err := capturePool()
	if err != nil {
		return err
	}
	n := max(int(fixedRate)*b.seconds, int(searchMaxRate*searchStep.Seconds()))
	if b.s, err = buildStream(pool, n, b.w.order, b.w.churn, b.seed); err != nil {
		return err
	}
	if b.bundle, err = ensemblePath(b.dir, c); err != nil {
		return err
	}
	b.rep.note("stream: %d reports pre-encoded over %d flows; one pass of the capture is %d reports",
		b.s.len(), b.s.flows(), b.s.passLen)
	// Hand the capture's and any training's memory back, so a run
	// that trained starts measuring from the same state as one that
	// loaded a saved bundle.
	debug.FreeOSMemory()
	return nil
}

// obsMode selects the pipeline's own observability.
type obsMode int

const (
	obsDefault obsMode = iota
	// obsOff turns span tracing, journeys and contention profiling off.
	obsOff
)

// config is the workload's pipeline configuration: LiveConfig defaults
// except what the workload names.
func (b *bench) config(ckptDir string, mode obsMode) core.LiveConfig {
	cfg := core.LiveConfig{ModelQuorum: quorum}
	if b.w.idleTimeout {
		cfg.FlowIdleTimeout = flowIdleTimeout
	}
	if b.w.checkpoint {
		cfg.CheckpointDir = ckptDir
		cfg.CheckpointFullEvery = checkpointFullEvery
	}
	if mode == obsOff {
		cfg.TraceSampleEvery = -1
		cfg.JourneySampleEvery = -1
		cfg.ProfileMutexFraction = -1
		cfg.ProfileBlockRate = -1
	}
	return cfg
}

// newLive loads the ensemble and builds an unstarted pipeline.
func (b *bench) newLive(cfg core.LiveConfig) (*core.Live, error) {
	models, scaler, err := loadEnsemble(b.bundle)
	if err != nil {
		return nil, err
	}
	cfg.Models, cfg.Scaler = models, scaler
	live, err := core.NewLive(cfg)
	if err != nil {
		return nil, fmt.Errorf("new pipeline: %w", err)
	}
	return live, nil
}

// coldStart times LoadEnsemble + NewLive (with any restore) + Start up
// to the first report accepted. The caller stops the pipeline.
func (b *bench) coldStart(cfg core.LiveConfig) (time.Duration, *core.Live, error) {
	t0 := time.Now()
	live, err := b.newLive(cfg)
	if err != nil {
		return 0, nil, err
	}
	live.Start()
	r, err := b.s.report(0)
	if err != nil {
		live.Stop()
		return 0, nil, err
	}
	live.HandleReport(r)
	return time.Since(t0), live, nil
}

// setupTimes cold-starts the pipeline, each time after a GC, at least
// setupReps times and for at least setupBudget, and appends the times
// in seconds to setups. first, if not nil, inspects the first pipeline
// before it is stopped.
func (b *bench) setupTimes(setups []float64, cfg core.LiveConfig, first func(*core.Live)) ([]float64, error) {
	t0 := time.Now()
	for k := 0; k < setupReps || time.Since(t0) < setupBudget; k++ {
		runtime.GC()
		d, live, err := b.coldStart(cfg)
		if err != nil {
			return nil, err
		}
		if first != nil && k == 0 {
			first(live)
		}
		live.Stop()
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// ckptDir returns a fresh, empty checkpoint directory for one run.
func (b *bench) ckptDir(tag string) (string, error) {
	d := filepath.Join(b.dir, fmt.Sprintf("ckpt-%s-%d-%s", b.w.name, os.Getpid(), tag))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// fixedOpts is the fixed-rate run: --seconds of reports at fixedRate,
// measured in windows of windowSeconds.
func (b *bench) fixedOpts(traced bool) runOpts {
	return runOpts{
		rate: fixedRate, n: int(fixedRate) * b.seconds, windowLen: int(fixedRate * windowSeconds),
		traced: traced, checkpoint: b.w.checkpoint,
	}
}

// fixedRun drives the workload's fixed-rate window through an
// unstarted pipeline, failing unless every offered report was decided.
// The pipeline is left running; the caller stops it.
func (b *bench) fixedRun(live *core.Live, o runOpts, res *runResult) (time.Duration, error) {
	start, err := drive(live, b.s, o, res)
	if err != nil {
		return 0, err
	}
	if res.aborted || !res.settled || len(res.decisions) != res.offered {
		return 0, fmt.Errorf("fixed-rate run at %.0f reports/s failed: offered %d, decided %d, shed %d, abandoned %d, settled %v",
			fixedRate, res.offered, len(res.decisions), live.Shed.Load(), live.Abandoned.Load(), res.settled)
	}
	return start, nil
}

// startedRun builds a pipeline with cfg and runs the fixed-rate window
// through it; the pipeline is returned running.
func (b *bench) startedRun(cfg core.LiveConfig, traced bool) (*core.Live, *runResult, error) {
	live, err := b.newLive(cfg)
	if err != nil {
		return nil, nil, err
	}
	o := b.fixedOpts(traced)
	res, err := newRun(o)
	if err != nil {
		live.Stop()
		return nil, nil, err
	}
	if _, err := b.fixedRun(live, o, res); err != nil {
		live.Stop()
		res.release()
		return nil, nil, err
	}
	return live, res, nil
}

// checkpointProbe measures one checkpoint, and the directory it
// leaves, of a pipeline that ran probeSeconds of the stream with a
// checkpoint directory. Workloads that do not checkpoint report the
// checkpoint layer from this: what their state would cost to capture,
// write and restore.
func (b *bench) checkpointProbe(dir string) (*runResult, error) {
	cfg := b.config(dir, obsDefault)
	cfg.CheckpointDir = dir
	cfg.CheckpointFullEvery = checkpointFullEvery
	live, err := b.newLive(cfg)
	if err != nil {
		return nil, err
	}
	n := int(fixedRate * probeSeconds)
	o := runOpts{rate: fixedRate, n: n, windowLen: n}
	res, err := newRun(o)
	if err != nil {
		live.Stop()
		return nil, err
	}
	if _, err = drive(live, b.s, o, res); err == nil {
		err = writeCheckpoint(live, res)
	}
	live.Stop()
	if err != nil {
		res.release()
		return nil, err
	}
	return res, nil
}

// endToEnd measures every end-to-end metric and checks the outputs.
func (b *bench) endToEnd() (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	defer b.s.close()
	dir, err := b.ckptDir("run")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	cfg := b.config(dir, obsDefault)

	var setups []float64
	if !b.w.checkpoint {
		if setups, err = b.setupTimes(setups, cfg, nil); err != nil {
			return result{}, err
		}
	}

	o := b.fixedOpts(false)
	res, err := newRun(o)
	if err != nil {
		return result{}, err
	}
	defer res.release() // every path below stops the pipeline first
	live, err := b.newLive(cfg)
	if err != nil {
		return result{}, err
	}
	heap0 := liveHeap()
	start, err := b.fixedRun(live, o, res)
	if err != nil {
		live.Stop()
		return result{}, err
	}
	heap1 := liveHeap()
	wins, decs, problems := b.verify(live, res, start, o)

	var pre pipelineState
	if b.w.checkpoint {
		if err := writeCheckpoint(live, res); err != nil {
			live.Stop()
			return result{}, err
		}
		pre = b.stateOf(live, decs)
	}
	live.Stop()
	led := ledgerOf(live, res, decs)
	problems = append(problems, led.check())

	if b.w.checkpoint {
		setups, err = b.setupTimes(setups, cfg, func(restarted *core.Live) {
			problems = append(problems, checkRestore(pre, restarted.Restore(), restarted.DB.Flow))
		})
		if err != nil {
			return result{}, err
		}
		b.rep.note("checkpoints: %d written during the run; set-up is a cold restore of the chain", len(res.writeMs))
	}

	correct := 0
	for _, d := range decs {
		if d.Correct() {
			correct++
		}
	}
	var all, p50s, p99s []float64
	minN := math.MaxInt
	for _, w := range wins {
		all = append(all, w...)
		minN = min(minN, len(w))
		p50s = append(p50s, percentile(w, 0.50).value)
		p99s = append(p99s, percentile(w, 0.99).value)
	}
	p50, p99 := percentile(all, 0.50), percentile(all, 0.99)
	b.rep.set("latency_p50_ms", p50.value, "ms")
	b.rep.set("accuracy", float64(correct)/float64(len(decs)), "fraction")
	b.rep.set("cpu_us_per_report", cpuPerReport(res), "us")
	b.rep.set("heap_growth_mb", (float64(heap1)-float64(heap0))/1e6, "MB")
	b.rep.note("latency_p50_ms over %d decisions; latency_p99_ms %.6g ms over %d decisions (not gated)",
		p50.n, p99.value, p99.n)
	b.rep.note("diagnostics over %d windows of at least %d decisions (p99 enough samples: %v): median p50 %.3f ms, median p99 %.3f ms, median cpu %.3f us/report",
		len(wins), minN, tailOK(minN, 0.99), median(p50s), median(p99s), median(windowCPU(res, o.windowLen)))
	b.rep.note("failed_ratio %.6g fraction: %d of %d offered reports not decided (ledger: shed %d, abandoned %d, ingest-dropped %d)",
		float64(led.failed())/float64(led.offered), led.failed(), led.offered, led.shed, led.abandoned, led.dropped)

	rps, err := b.sustained()
	if err != nil {
		return result{}, err
	}
	b.rep.set("sustained_rps", rps, "reports/s")
	if setups, err = b.setupTimes(setups, cfg, nil); err != nil {
		return result{}, err
	}
	b.rep.set("setup_s", median(setups), "s")
	b.rep.note("setup_s is the median of %d cold starts, half before and half after the search", len(setups))

	return result{Correct: b.correctOf(problems), Attempted: led.offered, Failed: led.failed(), Metrics: b.rep.metrics}, nil
}

// verify checks a settled run's outputs while its pipeline still runs:
// every decision answers an offered report, per-flow Seq increases,
// and the final stored snapshots re-score to the final votes. It
// returns the latencies by window and the decision log.
func (b *bench) verify(live *core.Live, res *runResult, start time.Duration, o runOpts) ([][]float64, []core.Decision, []error) {
	var problems []error
	wins, err := latencies(res, b.s, start, o)
	problems = append(problems, err)
	decs := live.Decisions()
	problems = append(problems, checkSeq(decs))
	models, scaler, err := loadEnsemble(b.bundle)
	if err != nil {
		return wins, decs, append(problems, err)
	}
	checked, err := checkRescore(decs, live.DB.Flow, models, scaler)
	b.rep.note("checks: %d final flow snapshots re-scored by the reference ensemble", checked)
	return wins, decs, append(problems, err)
}

// ledgerOf reads a stopped pipeline's report accounting.
func ledgerOf(live *core.Live, res *runResult, decs []core.Decision) ledger {
	return ledger{
		offered: int64(res.offered), decided: int64(len(decs)),
		shed: live.Shed.Load(), abandoned: live.Abandoned.Load(), dropped: ingestDropped(live),
	}
}

// correctOf records every failed check as a note and reports whether
// all passed.
func (b *bench) correctOf(problems []error) bool {
	ok := true
	for _, p := range problems {
		if p != nil {
			ok = false
			b.rep.note("CHECK FAILED: %v", p)
		}
	}
	return ok
}

// stateOf captures the durable state a restart must reproduce: the
// store's flow and prediction counts and a spread of flow records.
func (b *bench) stateOf(live *core.Live, decs []core.Decision) pipelineState {
	st := pipelineState{flows: live.DB.FlowCount(), predictions: live.DB.PredictionCount()}
	// Report 0's flow is left out: each cold start accepts report 0
	// again, so its record moves.
	first := b.s.pk[0]
	step := max(1, len(decs)/restoreSample)
	for i := 0; i < len(decs); i += step {
		if pack(decs[i].Key) == first {
			continue
		}
		if rec, ok := live.DB.Flow(decs[i].Key); ok {
			st.sample = append(st.sample, rec)
		}
	}
	return st
}

// traced measures the per-layer metrics: an untraced live run for the
// pipeline's counters and the baseline CPU, a traced live run (every
// HandleReport timed, backlog gauges sampled), a run with the
// pipeline's own observability off, and the single-threaded layer
// replay of the same stream.
func (b *bench) traced() (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	defer b.s.close()
	n := int(fixedRate) * b.seconds
	o := b.fixedOpts(false)

	dir, err := b.ckptDir("base")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	base, err := newRun(o)
	if err != nil {
		return result{}, err
	}
	defer base.release() // every path below stops the pipeline first
	live, err := b.newLive(b.config(dir, obsDefault))
	if err != nil {
		return result{}, err
	}
	start, err := b.fixedRun(live, o, base)
	if err != nil {
		live.Stop()
		return result{}, err
	}
	_, decs, problems := b.verify(live, base, start, o)
	snap := live.MetricsSnapshot()
	polls := snap.Counters["intddos_polls_total"]
	polled := live.Polled.Load()
	predictions := live.DB.PredictionCount()
	shed := live.Shed.Load()
	if b.w.checkpoint {
		if err := writeCheckpoint(live, base); err != nil {
			live.Stop()
			return result{}, err
		}
	}
	live.Stop()
	led := ledgerOf(live, base, decs)
	problems = append(problems, led.check())
	ckpts, ckptDir := base, dir
	if !b.w.checkpoint {
		if ckptDir, err = b.ckptDir("probe"); err != nil {
			return result{}, err
		}
		defer os.RemoveAll(ckptDir)
		if ckpts, err = b.checkpointProbe(ckptDir); err != nil {
			return result{}, err
		}
		defer ckpts.release()
	}
	var restores []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if _, _, ok, err := checkpoint.LatestChain(ckptDir); err != nil || !ok {
			return result{}, fmt.Errorf("load checkpoint chain: ok=%v err=%v", ok, err)
		}
		restores = append(restores, time.Since(t0).Seconds())
	}

	tdir, err := b.ckptDir("traced")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tdir)
	live, tr, err := b.startedRun(b.config(tdir, obsDefault), true)
	if err != nil {
		return result{}, err
	}
	live.Stop()
	defer tr.release()

	odir, err := b.ckptDir("obsoff")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(odir)
	live, off, err := b.startedRun(b.config(odir, obsOff), false)
	if err != nil {
		return result{}, err
	}
	live.Stop()
	defer off.release()

	models, scaler, err := loadEnsemble(b.bundle)
	if err != nil {
		return result{}, err
	}
	var idle time.Duration
	if b.w.idleTimeout {
		idle = flowIdleTimeout
	}
	rp, err := replay(b.s, min(n, int(fixedRate*replaySeconds)), fixedRate, idle, models, scaler)
	if err != nil {
		return result{}, err
	}
	// One dump per workload, overwritten by the next traced run, so
	// repeated runs do not pile up tens of MB each.
	spanPath := filepath.Join(b.dir, "spans-"+b.w.name+".tsv")
	if err := rp.tr.dump(spanPath); err != nil {
		return result{}, err
	}

	t := func(name string) layerTime {
		for i, nm := range rp.tr.names {
			if nm == name {
				return rp.times[i]
			}
		}
		return layerTime{}
	}
	perCall := func(name string) float64 {
		lt := t(name)
		if lt.calls == 0 {
			return 0
		}
		return float64(lt.self) / float64(lt.calls)
	}
	perUnit := func(name string, units int) float64 {
		if units == 0 {
			return 0
		}
		return float64(t(name).self) / float64(units)
	}
	r := &b.rep
	r.set("telemetry.decode_ns", perCall("telemetry.decode"), "ns")
	r.set("telemetry.decode_allocs", decodeAllocs(b.s, n), "count")
	r.set("flow.observe_ns", perCall("flow.observe"), "ns")
	r.set("flow.insert_ratio", float64(rp.inserted)/float64(rp.reports), "fraction")
	r.set("flow.resident_flows", float64(rp.resident), "count")
	sweep := 0.0
	if lt := t("flow.sweep"); lt.calls > 0 {
		sweep = float64(lt.total) / float64(lt.calls) / 1e6
	}
	r.set("flow.sweep_ms", sweep, "ms")
	r.set("store.upsert_ns", perCall("store.upsert"), "ns")
	r.set("store.poll_ns_per_record", perUnit("store.poll", rp.polled), "ns")
	r.set("store.trim_ns_per_record", perUnit("store.trim", rp.polled), "ns")
	r.set("store.journal_len_p99", percentile(tr.journal, 0.99).value, "count")
	r.set("store.append_prediction_ns", perCall("store.append_prediction"), "ns")
	r.set("store.predictions_logged", float64(predictions), "count")
	r.set("ml.scale_ns_per_row", perUnit("ml.scale", rp.scored), "ns")
	for _, m := range models {
		lower := strings.ToLower(m.Name())
		r.set("ml."+lower+"_ns_per_row", perUnit("ml.predict."+lower, rp.scored), "ns")
	}
	r.set("ml.vote_ns_per_row", perUnit("ml.vote", rp.scored), "ns")
	hp50, hp99 := percentile(tr.handleNs, 0.50), percentile(tr.handleNs, 0.99)
	r.set("core.handle_report_ns_p50", hp50.value, "ns")
	r.set("core.handle_report_ns_p99", hp99.value, "ns")
	r.set("core.ingest_backlog_p99", percentile(tr.backlog, 0.99).value, "count")
	rpp := 0.0
	if polls > 0 {
		rpp = float64(polled) / float64(polls)
	}
	r.set("core.records_per_poll", rpp, "count")
	r.set("core.shed_ratio", float64(shed)/float64(max(polled, 1)), "fraction")

	// Layer self times per report, and what the live run spent beyond
	// them: the pipeline's plumbing.
	var layers int64
	for i, nm := range rp.tr.names {
		if !strings.HasPrefix(nm, "bench.") {
			layers += rp.times[i].self
		}
	}
	layerUs := float64(layers) / float64(rp.reports) / 1e3
	liveUs := cpuPerReport(base)
	r.set("core.overhead_us_per_report", liveUs-layerUs, "us")

	r.set("checkpoint.barrier_ms_p99", percentile(ckpts.barrierMs, 0.99).value, "ms")
	r.set("checkpoint.write_ms", median(ckpts.writeMs), "ms")
	r.set("checkpoint.bytes", median(ckpts.ckptBytes), "bytes")
	r.set("checkpoint.restore_s", median(restores), "s")
	r.set("obs.overhead_ratio", liveUs/cpuPerReport(off), "ratio")
	r.set("go.gc_cpu_fraction", base.gcCPU, "fraction")
	r.set("go.alloc_bytes_per_report", float64(base.allocBytes)/float64(base.offered), "bytes")
	r.set("gen.late_ms_p99", percentile(base.lateMs, 0.99).value, "ms")
	r.set("trace.overhead_us_per_report", cpuPerReport(tr)-liveUs, "us")

	r.note("replay: %d reports, %d spans dumped to %s", rp.reports, len(rp.tr.spans), spanPath)
	r.note("self time by span (replay, single goroutine):")
	r.note("  %-26s %10s %12s %12s", "span", "calls", "self ns/call", "us/report")
	for i, nm := range rp.tr.names {
		lt := rp.times[i]
		if lt.calls == 0 {
			continue
		}
		r.note("  %-26s %10d %12.0f %12.3f", nm, lt.calls, float64(lt.self)/float64(lt.calls),
			float64(lt.self)/float64(rp.reports)/1e3)
	}
	r.note("reconciliation: layer self times %.3f us + core.overhead %.3f us = live cpu_us_per_report %.3f us",
		layerUs, liveUs-layerUs, liveUs)
	r.note("live cpu_us_per_report: untraced %.3f, traced %.3f, observability off %.3f",
		liveUs, cpuPerReport(tr), cpuPerReport(off))
	r.note("percentile samples: handle_report %d, backlog/journal %d, generator lateness %d, checkpoint barriers %d",
		hp99.n, len(tr.backlog), len(base.lateMs), len(ckpts.barrierMs))
	if !b.w.checkpoint {
		r.note("checkpoint.*: this workload does not checkpoint; one checkpoint of the state after %.0f s of the stream", probeSeconds)
	}
	return result{Correct: b.correctOf(problems), Attempted: led.offered, Failed: led.failed(), Metrics: b.rep.metrics}, nil
}
