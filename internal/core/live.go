package core

import (
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amlight/intddos/internal/checkpoint"
	"github.com/amlight/intddos/internal/fault"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/obs/prof"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// LiveConfig parameterizes the wall-clock runtime of the mechanism.
type LiveConfig struct {
	// Features selects the model input vector (default: the paper's
	// 15 INT features).
	Features flow.FeatureSet
	// Models is the pre-trained ensemble.
	Models []ml.Classifier
	// Scaler standardizes snapshots; required.
	Scaler *ml.StandardScaler

	// PollInterval is the CentralServer polling period (default 5 ms
	// wall time). With sharding, every shard poller ticks at this
	// period independently.
	PollInterval time.Duration
	// PollBatch bounds records fetched per poll per shard (default 256).
	PollBatch int
	// QueueCap bounds the prediction input channels (default 4096,
	// divided across workers); beyond it updates are shed and counted.
	QueueCap int
	// Workers is the number of prediction goroutines (default 1,
	// like the paper's single Python predictor). Each worker owns its
	// own input channel; shards are assigned to workers round-robin,
	// so all updates of one flow are predicted by one worker in
	// journal order — the invariant the vote window needs.
	Workers int

	// IngestQueueCap bounds each shard's ingest queue (default 1024).
	// HandleReport demuxes reports onto per-shard queues by flow-key
	// hash; one ingester goroutine per shard drains its queue into the
	// flow table and journal, so report producers never serialize on a
	// single journal appender. A full queue applies backpressure to
	// the producer (like the paper's collector socket) rather than
	// dropping; reports arriving after Stop are dropped and counted in
	// intddos_ingest_dropped_total.
	IngestQueueCap int

	// Shards stripes the flow table, the database journal, the vote
	// windows, and the dispatch to prediction workers by flow.Key hash
	// (default 1, the paper's one-database layout).
	Shards int

	// PredictBatch caps the micro-batch a prediction worker drains
	// from its shard queue per wakeup: queued records already waiting
	// are scored through the scaler and ensemble batch paths in one
	// amortized call instead of one record per wakeup. The batch
	// contract makes results row-for-row identical to per-record
	// scoring, so this only trades per-record overhead for batching.
	// Zero or one keeps the paper's record-at-a-time behavior; batches
	// only form from backlog, a worker never waits to fill one.
	PredictBatch int

	// Triage enables tiered inference: per-shard streaming sketches
	// (count-min heavy hitter + flow-key entropy) over the ingest
	// stream and a confidence-thresholded stage-0 model early-exit
	// confident rows before the full ensemble vote; only uncertain
	// rows — and anything the sketch flags suspicious — pay for
	// MLP+RF+GNB. Off (the default) keeps the score-everything
	// contract bit-identical to the legacy path. TriageThreshold is
	// the minimum stage-0 confidence |2p-1| to exit (<= 0 leaves the
	// cascade inert: the tiered code path runs, every row falls
	// through, output stays bit-identical — the exact-mode property
	// the tests pin). TriageModel picks the stage-0 model; nil selects
	// the last probability-capable ensemble member. The sketches are
	// updated only under the per-shard checkpoint barrier, so they are
	// quiescent at every capture; they are deliberately not persisted
	// (rewarmed from live traffic after restore).
	Triage          bool
	TriageThreshold float64
	TriageModel     ml.Classifier

	// ModelQuorum and VoteWindow mirror the simulated mechanism
	// (defaults 2-of-ensemble and 3). When ensemble members are
	// marked unhealthy the quorum degrades to majority-of-available;
	// see scorer.score.
	ModelQuorum int
	VoteWindow  int
	// SkipNewRecords restricts prediction to record updates (§III-3
	// strict reading).
	SkipNewRecords bool

	// FlowIdleTimeout evicts flows idle past this TTL — their vote
	// windows, flow-table state, and database records — so long runs
	// don't accumulate per-flow memory without bound. Zero disables
	// eviction. Evictions are counted in intddos_evictions_total.
	FlowIdleTimeout time.Duration
	// SweepInterval is how often the eviction pass runs (default:
	// FlowIdleTimeout).
	SweepInterval time.Duration

	// CheckpointDir enables crash-consistent checkpointing: snapshots
	// of the pipeline's durable state (flow tables, store shards with
	// journal tails, vote windows, prediction log) are written
	// atomically into this directory, and NewLive restores from the
	// newest valid one at boot. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the periodic checkpoint interval. Zero writes
	// no periodic checkpoints — WriteCheckpoint can still be called
	// explicitly (shutdown, signal handler, tests).
	CheckpointEvery time.Duration
	// CheckpointKeep is how many checkpoint files to retain (default 3;
	// a delta's chain ancestors are always retained with it).
	CheckpointKeep int
	// CheckpointBarrierTimeout bounds how long a checkpoint waits for
	// in-flight records to finish before giving up (default 5s).
	CheckpointBarrierTimeout time.Duration
	// CheckpointFullEvery sets the full-snapshot cadence: every Nth
	// checkpoint is a self-contained full snapshot and the N-1 between
	// are incremental deltas carrying only state dirtied since the
	// previous capture. 0 or 1 writes only full snapshots (the legacy
	// behavior). Deltas keep the capture barrier's hold time
	// proportional to the churn since the last checkpoint, not to the
	// total flow count.
	CheckpointFullEvery int
	// CheckpointCompress flate-compresses checkpoint section payloads —
	// smaller files for slower disks, more CPU outside the barrier.
	CheckpointCompress bool

	// Registry receives the runtime's metrics, stage histograms, and
	// decision tracer; nil builds a private registry, readable via
	// Obs(). A registry should be scoped to one pipeline instance.
	Registry *obs.Registry
	// TraceSampleEvery routes 1-in-N flow records through the
	// per-stage span tracer (default 64; negative disables tracing).
	TraceSampleEvery int

	// JourneySampleEvery follows 1-in-N flow updates end to end —
	// ingest → journal → poll → batch → predict → vote, one wall-clock
	// stamp per hop, across every goroutine handoff — queryable on
	// /traces/flow (default 256; negative disables journey tracing).
	JourneySampleEvery int

	// ProfileMutexFraction and ProfileBlockRate configure always-on
	// contention profiling for the pipeline's lifetime: 1-in-N
	// contended mutex events sampled, one block sample per N ns of
	// blocked time. Zero selects prof's defaults (100 and 10µs);
	// negative leaves the runtime's settings untouched. The resulting
	// attribution report is served on /debug/attrib.
	ProfileMutexFraction int
	ProfileBlockRate     int
	// ProfileDir, when set, enables periodic on-disk profile captures
	// (CPU/mutex/block/goroutine/heap) into a bounded ring of files;
	// ProfileInterval is the capture period (default 30s).
	ProfileDir      string
	ProfileInterval time.Duration

	// DedupWindow enables per-source report deduplication at
	// HandleReport: each source's last DedupWindow sequence numbers are
	// remembered, duplicate and stale reports are suppressed before
	// they can become flow observations (one report never becomes two
	// decisions over a duplicating wire), and reordered arrivals within
	// the window are admitted. Zero (the default) disables dedup — the
	// report path is byte-identical to the pre-dedup pipeline. Only
	// reports carrying a meaningful source key participate: dedup is
	// per exporter, never global.
	DedupWindow int
	// DedupMaxSources bounds the dedup tracker's per-source state
	// (least-recently-active eviction; default 1024).
	DedupMaxSources int

	// Fault injects a deterministic fault schedule into the pipeline:
	// telemetry drop/corrupt/delay at ingestion, store stalls and
	// transient errors (the store is wrapped automatically), worker
	// panics, and per-model scoring failures. Nil injects nothing and
	// costs one branch per event.
	Fault *fault.Injector

	// DrainOnStop makes Stop score every record still queued to the
	// prediction workers instead of abandoning them. Off (the
	// default, matching the paper's shutdown) queued records are
	// counted in intddos_records_abandoned{reason="stop"} — observable
	// either way, lost silently never.
	DrainOnStop bool

	// WorkerRestartBudget bounds how many times the supervisor
	// restarts a panicking prediction worker before declaring it down
	// (default 8; negative: unlimited). A down worker's queue is
	// drained into intddos_records_abandoned{reason="worker_down"}
	// and the pipeline reports shedding.
	WorkerRestartBudget int
	// WorkerRestartBackoff is the supervisor's initial restart delay,
	// doubling per consecutive restart up to one second (default 10ms).
	WorkerRestartBackoff time.Duration

	// StoreRetries bounds retry attempts after a transient store
	// error (default 3). Writes still failing after the budget are
	// dropped and counted in intddos_store_dropped_total; polls
	// simply retry at the next tick (the journal cursor is unchanged,
	// so nothing is lost).
	StoreRetries int
	// StoreRetryBackoff is the initial delay between store retries,
	// doubling per attempt (default 2ms).
	StoreRetryBackoff time.Duration

	// ModelFailThreshold is how many consecutive scoring failures
	// mark an ensemble member unhealthy (default 3).
	ModelFailThreshold int
	// ModelProbeAfter is how long an unhealthy member sits out before
	// a recovery probe re-includes it in a scoring attempt (default 1s).
	ModelProbeAfter time.Duration

	// HealthRecency is how long after the last fault event the
	// pipeline keeps reporting the corresponding non-healthy state
	// before reassessment may lower it (default 5s).
	HealthRecency time.Duration
}

// liveMetrics bundles the runtime's obs instruments. All fields are
// nil-safe, so a zero value disables instrumentation.
type liveMetrics struct {
	reports     *obs.Counter
	dupReports  *obs.Counter
	staleReps   *obs.Counter
	reordered   *obs.Counter
	seqGaps     *obs.Counter
	snapshots   *obs.Counter
	predictions *obs.Counter
	shed        *obs.Counter
	polls       *obs.Counter
	polledRecs  *obs.Counter
	evictions   *obs.Counter

	decisions *obs.CounterVec // by attack_type
	misclass  *obs.CounterVec // by attack_type

	// Bottleneck-attribution instruments: ingest calls that found the
	// checkpoint barrier held, reports dropped at the ingest demux
	// after Stop, and per-shard poll throughput.
	ingestStalls  *obs.Counter
	ingestDropped *obs.Counter
	shardPolled   *obs.CounterVec // by shard

	// Robustness accounting: every record the pollers hand off is
	// eventually a decision, a shed, or an abandonment with a reason —
	// nothing vanishes silently.
	abandoned         *obs.CounterVec // by reason: stop/panic/worker_down/no_model/malformed
	workerRestarts    *obs.Counter
	workerPanics      *obs.Counter
	storeRetries      *obs.Counter
	storeDropped      *obs.Counter
	degradedBatches   *obs.Counter
	modelFailures     *obs.CounterVec // by model
	modelHealthy      *obs.GaugeVec   // by model, 1 healthy / 0 unhealthy
	healthTransitions *obs.CounterVec // by state entered

	predictLatency *obs.Histogram // end-to-end §III-2 prediction latency
	batchSize      *obs.Histogram // records per micro-batch scoring call
	sampleLatency  *obs.Histogram // per-sample share of the batch scoring call

	// Tiered-inference instruments: per-stage exit counters (label
	// "fallthrough" counts rows that paid for the full ensemble; the
	// stage-1 and fallthrough children are cached off the hot path)
	// and the cost of the triage pass itself.
	triageExits       *obs.CounterVec // by stage: "1", ..., "fallthrough"
	triageExitStage1  *obs.Counter
	triageFallthrough *obs.Counter
	triageLatency     *obs.Histogram

	// Checkpoint/restore instruments. ckptDuration covers the whole
	// write (capture + encode + fsync); ckptBarrier only the pause the
	// pipeline actually feels — the window in which the per-shard
	// barrier locks are held. Prune failures are counted apart from
	// write failures: a failed write lost a snapshot, a failed prune
	// only leaked disk.
	ckpts             *obs.Counter
	ckptFailures      *obs.Counter
	ckptPruneFailures *obs.Counter
	ckptBytes         *obs.Counter
	ckptDuration      *obs.Histogram
	ckptBarrier       *obs.Histogram
	ckptLastSuccess   *obs.Gauge
	restores          *obs.Counter
	restoredRecs      *obs.CounterVec // by kind: flows/store_flows/journal_pending/windows/predictions

	// Per-stage latency histograms (children of intddos_stage_seconds
	// cached so the hot path skips the vec lookup).
	stageIngest  *obs.Histogram
	stageJournal *obs.Histogram
	stageQueue   *obs.Histogram
	stagePredict *obs.Histogram
	stageVote    *obs.Histogram
}

// newLiveMetrics registers the runtime's instruments on reg.
func newLiveMetrics(reg *obs.Registry) liveMetrics {
	stages := reg.HistogramVec("intddos_stage_seconds", "stage", nil)
	triageExits := reg.CounterVec("intddos_triage_exits_total", "stage")
	return liveMetrics{
		triageExits:       triageExits,
		triageExitStage1:  triageExits.With("1"),
		triageFallthrough: triageExits.With("fallthrough"),
		triageLatency:     reg.Histogram("intddos_triage_seconds", nil),
		reports:           reg.Counter("intddos_reports_total"),
		dupReports:        reg.Counter("intddos_reports_duplicate_total"),
		staleReps:         reg.Counter("intddos_reports_stale_total"),
		reordered:         reg.Counter("intddos_reports_reordered_total"),
		seqGaps:           reg.Counter("intddos_reports_seq_gaps_total"),
		snapshots:         reg.Counter("intddos_snapshots_total"),
		predictions:       reg.Counter("intddos_predictions_total"),
		shed:              reg.Counter("intddos_shed_total"),
		polls:             reg.Counter("intddos_polls_total"),
		polledRecs:        reg.Counter("intddos_records_polled_total"),
		evictions:         reg.Counter("intddos_evictions_total"),
		decisions:         reg.CounterVec("intddos_decisions_total", "attack_type"),
		misclass:          reg.CounterVec("intddos_misclassified_total", "attack_type"),
		ingestStalls:      reg.Counter("intddos_ingest_barrier_stalls_total"),
		ingestDropped:     reg.Counter("intddos_ingest_dropped_total"),
		shardPolled:       reg.CounterVec("intddos_shard_polled_total", "shard"),
		abandoned:         reg.CounterVec("intddos_records_abandoned", "reason"),
		workerRestarts:    reg.Counter("intddos_worker_restarts_total"),
		workerPanics:      reg.Counter("intddos_worker_panics_total"),
		storeRetries:      reg.Counter("intddos_store_retries_total"),
		storeDropped:      reg.Counter("intddos_store_dropped_total"),
		degradedBatches:   reg.Counter("intddos_degraded_batches_total"),
		modelFailures:     reg.CounterVec("intddos_model_failures_total", "model"),
		modelHealthy:      reg.GaugeVec("intddos_model_healthy", "model"),
		healthTransitions: reg.CounterVec("intddos_health_transitions_total", "state"),
		predictLatency:    reg.Histogram("intddos_predict_latency_seconds", nil),
		batchSize:         reg.Histogram("intddos_predict_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		sampleLatency:     reg.Histogram("intddos_predict_sample_seconds", nil),
		ckpts:             reg.Counter("intddos_checkpoints_total"),
		ckptFailures:      reg.Counter("intddos_checkpoint_failures_total"),
		ckptPruneFailures: reg.Counter("intddos_checkpoint_prune_failures_total"),
		ckptBytes:         reg.Counter("intddos_checkpoint_bytes_total"),
		ckptDuration:      reg.Histogram("intddos_checkpoint_duration_seconds", nil),
		ckptBarrier:       reg.Histogram("intddos_checkpoint_barrier_seconds", nil),
		ckptLastSuccess:   reg.Gauge("intddos_checkpoint_last_success_unixtime"),
		restores:          reg.Counter("intddos_restores_total"),
		restoredRecs:      reg.CounterVec("intddos_restored_records_total", "kind"),
		stageIngest:       stages.With("ingest"),
		stageJournal:      stages.With("journal_wait"),
		stageQueue:        stages.With("queue_wait"),
		stagePredict:      stages.With("scale_predict"),
		stageVote:         stages.With("vote"),
	}
}

// queued is one flow record in flight to the prediction workers,
// carrying the timestamps and (for sampled records) the span trace
// that make per-stage latencies observable.
type queued struct {
	rec        store.FlowRecord
	enqueuedAt time.Time
	tr         *obs.Trace
}

// workerBatch is the micro-batch a worker is currently scoring, with
// how many of its records have been finished — the bookkeeping panic
// recovery needs to account for every dequeued record exactly once.
type workerBatch struct {
	batch []queued
	done  int
}

// Live runs the four Figure 2 modules as concurrent goroutines over
// the wall clock — the deployment mode of the paper's production
// implementation — sharing the same flow table, database, Prediction
// module (scorer), and window vote as the simulated Mechanism; Live
// itself is the goroutine shell: metrics, journeys, tracing, and the
// abandon/taint accounting. Timestamps are wall-clock
// nanoseconds widened into the same Time domain the rest of the
// repository uses.
//
// The hot path is sharded end to end by flow.Key hash: each shard has
// its own flow-table stripe, database journal with cursor, and poller
// goroutine, and shards map to prediction workers round-robin, so
// every update of one flow flows through one lock stripe, one
// journal, one poller, and one worker — per-flow prediction order is
// preserved at any worker count.
//
// The runtime is supervised: prediction workers recover from panics
// and are restarted with exponential backoff under a restart budget,
// transient store errors are retried with backoff, unhealthy ensemble
// members are voted around (quorum degrades to majority-of-available),
// and every record the pollers hand off is accounted for — decided,
// shed, or abandoned with a reason — even across panics and shutdown.
// The aggregate condition (healthy/degraded/shedding) is reported on
// /healthz.
type Live struct {
	cfg LiveConfig

	tables *flow.ShardedTable

	// sc is the Prediction module shared by every worker. Its per-shard
	// triage sketches (triage on) have a single writer — the shard's
	// ingester, under the shard's checkpoint-barrier read lock — and
	// concurrent readers (workers), atomics throughout. votes holds the
	// per-shard vote windows.
	sc    *scorer
	votes *voteWindows

	DB  store.Store
	fdb store.Fallible // non-nil when DB surfaces transient errors

	// Checkpointing. ckptMu is the capture barrier, one lock per
	// shard: ingesters and shard pollers hold only their own shard's
	// lock for read per operation, so shards never contend with each
	// other on the barrier; the sweeper and a checkpoint capture take
	// every lock in ascending shard order (all-read and all-write
	// respectively — the fixed order keeps the set acyclic), wait for
	// in-flight records to settle, and export a consistent cut.
	// rawDB is the concrete store beneath any fault wrapper — a
	// checkpoint must read real state, not a fault-shaped view of it.
	ckptMu      []sync.RWMutex
	rawDB       *store.ShardedDB
	ckptSeq     atomic.Uint64
	fingerprint uint64
	restored    *RestoreSummary
	completed   atomic.Int64 // records fully finished (decision + prediction logged)

	// Incremental checkpointing. deltaTrack reports that dirty tracking
	// is live across the table, store, and window layers (set once in
	// NewLive when CheckpointDir is configured, before any concurrent
	// use). lastBarrierNs is the most recent capture's barrier hold,
	// for the bench and /metrics.
	deltaTrack    bool
	lastBarrierNs atomic.Int64

	// ckptWriteMu serializes WriteCheckpoint callers (the periodic
	// checkpointer, shutdown, signal handlers) and guards the chain
	// bookkeeping below: whether a base exists on disk for deltas to
	// chain to, how many deltas were written since the last full, and
	// the (seq, CRC) identity of the newest file — the parent link the
	// next delta records. A failed write clears haveBase: the capture
	// consumed the dirty marks, so the next checkpoint must be full or
	// the chain would silently skip a delta.
	ckptWriteMu sync.Mutex
	haveBase    bool
	sinceFull   int
	lastCkptSeq uint64
	lastCkptCRC uint32

	// ckptScratch holds the previous full capture's export arrays,
	// reclaimed after its snapshot has been encoded to disk and handed
	// back to the next full capture, which then copies into warm
	// memory instead of allocating (and page-faulting) hundreds of
	// megabytes inside the barrier. Guarded by ckptWriteMu; only the
	// WriteCheckpoint path reuses — CaptureCheckpoint callers own
	// their snapshots indefinitely, so they always get fresh arrays.
	ckptScratch *captureScratch

	// encScratch is the encoder's buffer freelist, owned here so the
	// buffers survive the GC cycles between periodic checkpoints
	// (sync.Pool would be drained long before the next write). Guarded
	// by ckptWriteMu like ckptScratch; it never influences the encoded
	// bytes, only allocation.
	encScratch *checkpoint.EncodeScratch

	// ckptPostCapture, when set (tests), runs after the capture barrier
	// has released and before the snapshot is encoded or written.
	ckptPostCapture func(*checkpoint.Snapshot)

	// Multi-producer ingest: HandleReport demuxes reports onto
	// per-shard queues; one ingester goroutine per shard owns the
	// journal appends for its stripe. ingestQuit (not a channel close
	// — producers are external and uncounted) stops the ingesters,
	// which drain their queues before exiting. ingestAccepted counts
	// observations enqueued, ingestDone observations journaled; the
	// difference is the demux backlog, which a checkpoint capture
	// settles before its cut (an accepted report must not vanish into
	// a queue the simulated crash discards).
	ingestChs      []chan flow.PacketInfo
	ingestQuit     chan struct{}
	ingestWg       sync.WaitGroup
	ingestAccepted atomic.Int64
	ingestDone     atomic.Int64

	workerChs []chan queued
	quit      chan struct{}
	pollWg    sync.WaitGroup // pollers + sweeper (stop first)
	workWg    sync.WaitGroup // worker supervisors (stop after channels close)
	stop      sync.Once

	reg    *obs.Registry
	met    liveMetrics
	tracer *obs.Tracer

	// Diagnostics: the structured event log (every noteworthy state
	// change), the flow-journey sampler, the contention profiler, and
	// per-worker busy-time accumulators (nanoseconds spent scoring).
	events        *obs.EventLog
	elog          *slog.Logger
	journeys      *obs.Journeys
	profiler      *prof.Profiler
	workerBusy    []atomic.Int64
	lastShedEvent atomic.Int64 // unix second of the last shed event (throttle)

	health      healthTracker
	workersDown atomic.Int32

	decMu     sync.Mutex
	decisions []Decision
	// OnDecision observes every final decision (called off the
	// prediction goroutine; keep it fast).
	OnDecision func(Decision)

	// dedup suppresses duplicate/stale reports per source at
	// HandleReport (nil when LiveConfig.DedupWindow is zero).
	dedup *telemetry.SeqTracker

	// Stats (atomics: read while running). Mirrored into the obs
	// registry; kept for compatibility with existing callers. With
	// dedup on, the report ledger closes as
	// Reports == Duplicates + StaleReports + fault drops + ingests.
	Reports     atomic.Int64
	Duplicates  atomic.Int64 // reports suppressed as duplicates
	StaleReps   atomic.Int64 // reports rejected as stale
	Reordered   atomic.Int64 // reports admitted out of order
	SeqGaps     atomic.Int64 // reports inferred lost upstream
	Snapshots   atomic.Int64
	Predictions atomic.Int64
	Shed        atomic.Int64
	Evictions   atomic.Int64

	// Robustness accounting (atomics: read while running).
	Polled         atomic.Int64 // records handed off by the pollers
	Abandoned      atomic.Int64 // records abandoned, any reason
	StoreRetries   atomic.Int64 // transient store errors retried
	StoreDropped   atomic.Int64 // store writes dropped after retries
	WorkerRestarts atomic.Int64 // supervisor restarts after panics
	ModelFailures  atomic.Int64 // failed ensemble scoring calls
	Checkpoints    atomic.Int64 // checkpoints successfully written
}

// NewLive validates cfg and builds the runtime.
func NewLive(cfg LiveConfig) (*Live, error) {
	// The triage model is resolved before fault wrapping: the cascade
	// needs the model's probability path, which fault wrappers do not
	// expose. Triage is a performance tier, not a fault surface —
	// fall-through rows still score through the wrapped ensemble.
	cascade, err := resolvePrediction(cfg.Models, cfg.Scaler, &cfg.ModelQuorum, &cfg.VoteWindow,
		cfg.Triage, cfg.TriageThreshold, cfg.TriageModel)
	if err != nil {
		return nil, err
	}
	if cfg.Features == nil {
		cfg.Features = flow.INTFeatures()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	if cfg.PollBatch <= 0 {
		cfg.PollBatch = 256
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.IngestQueueCap <= 0 {
		cfg.IngestQueueCap = 1024
	}
	cfg.Shards = max(1, cfg.Shards)
	if cfg.PredictBatch < 1 {
		cfg.PredictBatch = 1
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.FlowIdleTimeout
	}
	if cfg.WorkerRestartBudget == 0 {
		cfg.WorkerRestartBudget = 8
	}
	if cfg.WorkerRestartBackoff <= 0 {
		cfg.WorkerRestartBackoff = 10 * time.Millisecond
	}
	if cfg.StoreRetries <= 0 {
		cfg.StoreRetries = 3
	}
	if cfg.StoreRetryBackoff <= 0 {
		cfg.StoreRetryBackoff = 2 * time.Millisecond
	}
	if cfg.ModelFailThreshold <= 0 {
		cfg.ModelFailThreshold = 3
	}
	if cfg.ModelProbeAfter <= 0 {
		cfg.ModelProbeAfter = time.Second
	}
	if cfg.HealthRecency <= 0 {
		cfg.HealthRecency = 5 * time.Second
	}
	if cfg.CheckpointKeep <= 0 {
		cfg.CheckpointKeep = 3
	}
	if cfg.CheckpointFullEvery < 0 {
		cfg.CheckpointFullEvery = 0
	}
	if cfg.CheckpointBarrierTimeout <= 0 {
		cfg.CheckpointBarrierTimeout = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	// The bundle fingerprint is computed over the caller's models
	// before fault wrapping (WrapModel preserves Name(), but the
	// fingerprint should describe the bundle, not the harness).
	fingerprint := bundleFingerprint(cfg.Models, cfg.Scaler, cfg.Features)
	// The ensemble is scored through each model's fallible path; with
	// an injector configured the models are wrapped so scheduled
	// scoring failures and latency can fire. The slice is copied —
	// the caller's models are never mutated.
	models := make([]ml.Classifier, len(cfg.Models))
	copy(models, cfg.Models)
	if cfg.Fault != nil {
		for i, m := range models {
			models[i] = fault.WrapModel(m, cfg.Fault)
		}
	}
	cfg.Models = models

	nShards := cfg.Shards
	// Keep the concrete store beneath any fault wrapping: the
	// checkpoint path exports and imports the real state directly.
	rawDB := store.NewSharded(nShards)
	var db store.Store = rawDB
	if cfg.Fault != nil && cfg.Fault.Spec().HasStoreFaults() {
		db = fault.WrapStore(db, cfg.Fault)
	}
	l := &Live{
		cfg:         cfg,
		tables:      flow.NewShardedTable(nShards),
		sc:          newScorer(models, cfg.Scaler, cfg.ModelQuorum, cascade, nShards),
		votes:       newVoteWindows(nShards, cfg.VoteWindow),
		DB:          db,
		rawDB:       rawDB,
		fingerprint: fingerprint,
		ckptMu:      make([]sync.RWMutex, nShards),
		ingestQuit:  make(chan struct{}),
		quit:        make(chan struct{}),
		reg:         cfg.Registry,
	}
	l.fdb, _ = db.(store.Fallible)
	if cfg.DedupWindow > 0 {
		l.dedup = telemetry.NewSeqTracker(cfg.DedupWindow, cfg.DedupMaxSources)
	}
	l.ingestChs = make([]chan flow.PacketInfo, nShards)
	for i := range l.ingestChs {
		l.ingestChs[i] = make(chan flow.PacketInfo, cfg.IngestQueueCap)
	}
	perWorkerCap := cfg.QueueCap / cfg.Workers
	if perWorkerCap < 1 {
		perWorkerCap = 1
	}
	l.workerChs = make([]chan queued, cfg.Workers)
	for i := range l.workerChs {
		l.workerChs[i] = make(chan queued, perWorkerCap)
	}
	l.tables.SetIdleTimeout(netsim.Time(cfg.FlowIdleTimeout))
	// Downstream state keyed by flow dies with the table entry: the
	// eviction hook deletes the database record and the vote window the
	// moment Sweep removes a flow, so idle eviction bounds memory in
	// every layer (previously swept flows leaked store records).
	l.tables.SetOnEvict(l.onEvict)
	l.DB.SetJournalNew(!cfg.SkipNewRecords)
	l.met = newLiveMetrics(l.reg)
	// Diagnostics: the event log must exist before anything below can
	// log (restore does), and the registry carries the journey sampler
	// and runtime telemetry for /traces/flow and /metrics.
	l.events = l.reg.Events()
	l.elog = l.events.Logger()
	if cfg.JourneySampleEvery >= 0 {
		l.journeys = obs.NewJourneys(cfg.JourneySampleEvery, 0)
		l.reg.SetFlowJourneys(l.journeys)
	}
	obs.RegisterRuntimeMetrics(l.reg)
	l.tables.SetContentionHook(l.reg.Counter("intddos_flow_table_contention_total").Inc)
	l.workerBusy = make([]atomic.Int64, cfg.Workers)
	l.sc.failThreshold, l.sc.probeAfter = cfg.ModelFailThreshold, cfg.ModelProbeAfter
	l.sc.triageLatency = l.met.triageLatency
	l.sc.onModel = l.onModel
	for _, mh := range l.sc.health {
		l.met.modelHealthy.With(mh.name).Set(1)
	}
	if cfg.TraceSampleEvery >= 0 {
		l.tracer = l.reg.Tracer("intddos_pipeline", cfg.TraceSampleEvery, 64)
	}
	l.reg.GaugeFunc("intddos_queue_depth", func() float64 {
		n := 0
		for _, ch := range l.workerChs {
			n += len(ch)
		}
		return float64(n)
	})
	l.reg.GaugeFunc("intddos_queue_capacity", func() float64 {
		n := 0
		for _, ch := range l.workerChs {
			n += cap(ch)
		}
		return float64(n)
	})
	l.reg.GaugeFunc("intddos_ingest_queue_depth", func() float64 {
		n := 0
		for _, ch := range l.ingestChs {
			n += len(ch)
		}
		return float64(n)
	})
	// Per-worker queue depth and utilization: which worker saturates
	// first is the difference between "add workers" and "fix the lock".
	depthVec := l.reg.GaugeVec("intddos_worker_queue_depth", "worker")
	busyVec := l.reg.GaugeVec("intddos_worker_busy_seconds", "worker")
	utilVec := l.reg.GaugeVec("intddos_worker_utilization", "worker")
	for w := range l.workerChs {
		w := w
		ws := strconv.Itoa(w)
		ch := l.workerChs[w]
		depthVec.WithFunc(ws, func() float64 { return float64(len(ch)) })
		busyVec.WithFunc(ws, func() float64 {
			return time.Duration(l.workerBusy[w].Load()).Seconds()
		})
		// Utilization is the busy fraction since the previous scrape;
		// the closure owns its window state (scrapes may be concurrent).
		var utilMu sync.Mutex
		lastAt := time.Now()
		var lastBusy int64
		utilVec.WithFunc(ws, func() float64 {
			utilMu.Lock()
			defer utilMu.Unlock()
			busy := l.workerBusy[w].Load()
			nowT := time.Now()
			dt := nowT.Sub(lastAt)
			if dt <= 0 {
				return 0
			}
			u := float64(busy-lastBusy) / float64(dt)
			lastBusy, lastAt = busy, nowT
			return u
		})
	}
	// Sketch saturation and entropy per shard: occupancy climbing
	// toward 1 means the count-min counters are filling up (widen the
	// sketch or shorten its life), entropy collapsing toward 0 means
	// the shard's key distribution has — the triage veto is active.
	if l.sc.sketches != nil {
		occVec := l.reg.GaugeVec("intddos_sketch_occupancy", "shard")
		entVec := l.reg.GaugeVec("intddos_sketch_entropy", "shard")
		for s := range l.sc.sketches {
			sk := l.sc.sketches[s]
			ss := strconv.Itoa(s)
			occVec.WithFunc(ss, sk.Occupancy)
			entVec.WithFunc(ss, sk.Entropy)
		}
	}
	l.reg.GaugeFunc("intddos_vote_windows", func() float64 { return float64(l.votes.count()) })
	l.reg.GaugeFunc("intddos_pipeline_shards", func() float64 { return float64(l.cfg.Shards) })
	l.reg.GaugeFunc("intddos_health_state", func() float64 { return float64(l.Health()) })
	l.reg.GaugeFunc("intddos_workers_down", func() float64 { return float64(l.workersDown.Load()) })
	if cfg.Fault != nil {
		sites := l.reg.GaugeVec("intddos_faults_injected", "site")
		for _, name := range fault.Sites() {
			name := name
			sites.WithFunc(name, func() float64 { return float64(cfg.Fault.SiteCount(name)) })
		}
	}
	l.reg.SetHealth(l.healthReport)
	l.reg.AddBundleFile("config.txt", func() ([]byte, error) {
		return []byte(l.describeConfig()), nil
	})
	l.DB.Instrument(l.reg)
	if cfg.CheckpointDir != "" {
		// Dirty tracking goes live before the restore and before any
		// concurrent use: restore resets the marks it touches, and every
		// layer's hot path reads its track flag without synchronization.
		l.deltaTrack = true
		l.votes.track = true
		rawDB.SetDeltaTracking(true)
		l.tables.SetDeltaTracking(true)
		if err := l.restoreLatest(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Obs returns the runtime's metrics registry (the one passed in
// LiveConfig.Registry, or the private default). Mount Obs().Handler()
// to serve /metrics, /healthz, /traces, and pprof.
func (l *Live) Obs() *obs.Registry { return l.reg }

// MetricsSnapshot captures every runtime metric — counters, queue
// gauges, and the per-stage latency histograms — for end-of-run
// summaries.
func (l *Live) MetricsSnapshot() obs.Snapshot { return l.reg.Snapshot() }

// Shards returns the pipeline's stripe count.
func (l *Live) Shards() int { return l.cfg.Shards }

// now returns the wall clock in the repository's Time domain.
func now() netsim.Time { return netsim.Time(time.Now().UnixNano()) }

// Start launches the per-shard CentralServer pollers, the supervised
// Prediction workers, and (when a TTL is configured) the eviction
// sweeper.
func (l *Live) Start() {
	l.startProfiler()
	l.event("pipeline started", "component", "lifecycle",
		"shards", l.cfg.Shards, "workers", l.cfg.Workers)
	for s := 0; s < l.cfg.Shards; s++ {
		l.ingestWg.Add(1)
		go l.ingester(s)
		l.pollWg.Add(1)
		go l.shardPoller(s)
	}
	for w := 0; w < l.cfg.Workers; w++ {
		l.workWg.Add(1)
		go l.superviseWorker(w)
	}
	if l.cfg.FlowIdleTimeout > 0 {
		l.pollWg.Add(1)
		go l.sweeper()
	}
	if l.cfg.CheckpointDir != "" && l.cfg.CheckpointEvery > 0 {
		l.pollWg.Add(1)
		go l.checkpointer()
	}
}

// Stop terminates the pipeline in three phases — the ingesters drain
// their queues and exit, then the pollers stop, then the worker
// channels are closed and the workers drain them — and waits for
// every goroutine. What happens to records still queued is policy:
// with DrainOnStop they are scored and logged like any other record;
// without it they are counted in
// intddos_records_abandoned{reason="stop"}. Either way nothing is
// dropped silently (reports handed to HandleReport after Stop begins
// are counted in intddos_ingest_dropped_total). Stop is idempotent —
// extra and concurrent calls wait for the same shutdown and return.
func (l *Live) Stop() {
	l.stop.Do(func() {
		close(l.ingestQuit)
		l.ingestWg.Wait()
		// A producer racing Stop can land a report in a queue after its
		// ingester's final drain; fold those in before the pollers stop
		// so they are journaled, not stranded.
		for _, ch := range l.ingestChs {
		drain:
			for {
				select {
				case pi := <-ch:
					l.Ingest(pi)
					l.ingestDone.Add(1)
				default:
					break drain
				}
			}
		}
		close(l.quit)
		l.pollWg.Wait()
		// Only the pollers write to the worker channels, so after
		// they exit the channels can close; the workers run out their
		// queues (scoring or accounting per DrainOnStop) and return.
		for _, ch := range l.workerChs {
			close(ch)
		}
		l.workWg.Wait()
		l.profiler.Stop()
		l.event("pipeline stopped", "component", "lifecycle",
			"polled", l.Polled.Load(), "decided", l.DecisionCount(),
			"shed", l.Shed.Load(), "abandoned", l.Abandoned.Load())
	})
}

// startProfiler enables always-on contention profiling for the
// pipeline's lifetime and wires the attribution report into the
// registry. A capture directory that cannot be created degrades to
// profiling without on-disk snapshots.
func (l *Live) startProfiler() {
	cfg := prof.Config{
		MutexFraction: l.cfg.ProfileMutexFraction,
		BlockRateNs:   l.cfg.ProfileBlockRate,
		Dir:           l.cfg.ProfileDir,
		Interval:      l.cfg.ProfileInterval,
		Registry:      l.reg,
	}
	p, err := prof.Start(cfg)
	if err != nil {
		l.elog.Warn("profile capture dir unavailable", "component", "prof", "err", err.Error())
		cfg.Dir = ""
		p, _ = prof.Start(cfg)
	}
	l.profiler = p
}

// event appends one structured event to the pipeline's event log.
func (l *Live) event(msg string, attrs ...any) {
	l.elog.Info(msg, attrs...)
}

// Events returns the pipeline's structured event log.
func (l *Live) Events() *obs.EventLog { return l.events }

// Journeys returns the pipeline's flow-journey sampler (nil when
// disabled).
func (l *Live) Journeys() *obs.Journeys { return l.journeys }

// Journey helpers: the nil/idle checks keep the unsampled hot path at
// one atomic load before any key is rendered.

func (l *Live) jHop(key flow.Key, seq int, hop string) {
	if l.journeys.Active() == 0 {
		return
	}
	l.journeys.Hop(key.String(), seq, hop)
}

func (l *Live) jComplete(key flow.Key, seq int) {
	if l.journeys.Active() == 0 {
		return
	}
	l.journeys.Complete(key.String(), seq, "vote")
}

func (l *Live) jAbort(key flow.Key, seq int, reason string) {
	if l.journeys.Active() == 0 {
		return
	}
	l.journeys.Abort(key.String(), seq, reason)
}

// describeConfig renders the resolved runtime configuration for
// diagnostic bundles — what this pipeline actually ran with, defaults
// applied, not what the flags said.
func (l *Live) describeConfig() string {
	cfg := l.cfg
	models := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		models[i] = m.Name()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d\nworkers=%d\n", l.cfg.Shards, cfg.Workers)
	fmt.Fprintf(&b, "models=%s\nquorum=%d\nvote_window=%d\n", strings.Join(models, ","), cfg.ModelQuorum, cfg.VoteWindow)
	fmt.Fprintf(&b, "features=%d\n", len(cfg.Scaler.Mean))
	fmt.Fprintf(&b, "poll_interval=%s\npoll_batch=%d\nqueue_cap=%d\ningest_queue_cap=%d\n", cfg.PollInterval, cfg.PollBatch, cfg.QueueCap, cfg.IngestQueueCap)
	fmt.Fprintf(&b, "predict_batch=%d\n", cfg.PredictBatch)
	triageModel := ""
	if c := l.sc.cascade; c != nil {
		triageModel = c.Stages[0].Name
	}
	fmt.Fprintf(&b, "triage=%t\ntriage_threshold=%g\ntriage_model=%s\n", cfg.Triage, cfg.TriageThreshold, triageModel)
	fmt.Fprintf(&b, "skip_new_records=%t\ndrain_on_stop=%t\n", cfg.SkipNewRecords, cfg.DrainOnStop)
	fmt.Fprintf(&b, "flow_idle_timeout=%s\nsweep_interval=%s\n", cfg.FlowIdleTimeout, cfg.SweepInterval)
	fmt.Fprintf(&b, "checkpoint_dir=%s\ncheckpoint_every=%s\ncheckpoint_keep=%d\n", cfg.CheckpointDir, cfg.CheckpointEvery, cfg.CheckpointKeep)
	fmt.Fprintf(&b, "checkpoint_full_every=%d\ncheckpoint_compress=%t\n", cfg.CheckpointFullEvery, cfg.CheckpointCompress)
	fmt.Fprintf(&b, "worker_restart_budget=%d\nstore_retries=%d\n", cfg.WorkerRestartBudget, cfg.StoreRetries)
	fmt.Fprintf(&b, "model_fail_threshold=%d\nmodel_probe_after=%s\nhealth_recency=%s\n", cfg.ModelFailThreshold, cfg.ModelProbeAfter, cfg.HealthRecency)
	fmt.Fprintf(&b, "trace_sample_every=%d\njourney_sample_every=%d\n", cfg.TraceSampleEvery, l.journeys.SampleEvery())
	fmt.Fprintf(&b, "profile_mutex_fraction=%d\nprofile_block_rate_ns=%d\nprofile_dir=%s\n", cfg.ProfileMutexFraction, cfg.ProfileBlockRate, cfg.ProfileDir)
	fmt.Fprintf(&b, "fingerprint=%016x\n", l.fingerprint)
	return b.String()
}

// stopping reports whether Stop has been requested.
func (l *Live) stopping() bool {
	select {
	case <-l.quit:
		return true
	default:
		return false
	}
}

// sleepQuit sleeps for d or until Stop, reporting whether the full
// duration elapsed.
func (l *Live) sleepQuit(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-l.quit:
		return false
	case <-timer.C:
		return true
	}
}

// HandleReport ingests one decoded INT report (INT Data Collection →
// Data Processor), applying the telemetry fault schedule when one is
// configured. Safe for concurrent use from any number of producers:
// reports are demuxed onto per-shard ingest queues and journaled by
// the shard's ingester goroutine, so producers only hash the key and
// enqueue.
func (l *Live) HandleReport(r *telemetry.Report) {
	l.Reports.Add(1)
	l.met.reports.Inc()
	// Duplicate suppression runs before the fault schedule and the
	// demux: over a duplicating or reordering wire, one exported report
	// must never become two flow observations (and so two decisions),
	// and a stale straggler must not rewind a flow's history. Reports
	// with no source identity skip dedup — sequence numbers are only
	// meaningful per exporter.
	if l.dedup != nil && r.SourceKey() != "" {
		res := l.dedup.Observe(r.SourceKey(), r.Seq)
		if res.Gaps > 0 {
			l.SeqGaps.Add(int64(res.Gaps))
			l.met.seqGaps.Add(int64(res.Gaps))
		}
		switch res.Verdict {
		case telemetry.SeqDuplicate:
			l.Duplicates.Add(1)
			l.met.dupReports.Inc()
			return
		case telemetry.SeqStale:
			l.StaleReps.Add(1)
			l.met.staleReps.Inc()
			return
		case telemetry.SeqReordered:
			l.Reordered.Add(1)
			l.met.reordered.Inc()
		}
	}
	in := l.cfg.Fault
	if in == nil {
		l.IngestAsync(flow.FromINT(r, now()))
		return
	}
	if in.CorruptReport(r) {
		in.Taint(flow.FromINT(r, 0).Key.String())
	}
	pi := flow.FromINT(r, now())
	if in.DropReport() {
		in.Taint(pi.Key.String())
		return
	}
	if d := in.ReportDelay(); d > 0 {
		in.Taint(pi.Key.String())
		time.Sleep(d)
		pi.At = now()
	}
	l.IngestAsync(pi)
}

// IngestAsync hands a normalized observation to its shard's ingester
// goroutine. The observation timestamp is taken here — arrival order
// at the demux, not queue-drain order, defines the flow's clock. A
// full shard queue blocks the producer (backpressure, like the
// paper's collector socket); after Stop begins the report is dropped
// and counted instead, because the ingesters are gone.
func (l *Live) IngestAsync(pi flow.PacketInfo) {
	if pi.At == 0 {
		pi.At = now()
	}
	select {
	case l.ingestChs[pi.Key.Shard(l.cfg.Shards)] <- pi:
		l.ingestAccepted.Add(1)
	case <-l.ingestQuit:
		l.met.ingestDropped.Inc()
	}
}

// IngestBacklog is how many accepted observations are still queued at
// the ingest demux, not yet folded into the flow table and journal.
func (l *Live) IngestBacklog() int64 {
	return l.ingestAccepted.Load() - l.ingestDone.Load()
}

// ingester owns one shard's ingest: it drains the shard's queue into
// the flow-table stripe and journal. One goroutine per shard keeps
// journal appends single-writer per stripe while producers fan in
// concurrently. On Stop it drains what is queued, then exits.
func (l *Live) ingester(shard int) {
	defer l.ingestWg.Done()
	ch := l.ingestChs[shard]
	for {
		select {
		case pi := <-ch:
			l.Ingest(pi)
			l.ingestDone.Add(1)
		case <-l.ingestQuit:
			for {
				select {
				case pi := <-ch:
					l.Ingest(pi)
					l.ingestDone.Add(1)
				default:
					return
				}
			}
		}
	}
}

// Ingest folds a normalized observation into its flow-table stripe
// and writes the snapshot to the database shard, retrying transient
// store errors with backoff. Safe for concurrent use; observations of
// flows on different shards never contend. Most callers want
// IngestAsync — Ingest applies the observation on the calling
// goroutine.
func (l *Live) Ingest(pi flow.PacketInfo) {
	// Checkpoint barrier: a capture in progress parks ingest until the
	// consistent cut is taken. Only this shard's barrier lock is taken,
	// so ingest on different shards never serializes here. A miss on
	// the read lock means the shard's ingest stalled behind the
	// barrier — counted, because from the outside it is
	// indistinguishable from slow ingest.
	shard := pi.Key.Shard(l.cfg.Shards)
	bar := &l.ckptMu[shard]
	if !bar.TryRLock() {
		l.met.ingestStalls.Inc()
		bar.RLock()
	}
	defer bar.RUnlock()
	start := time.Now()
	if pi.At == 0 {
		pi.At = now()
	}
	// Triage sketch: fed on the ingest path, under the shard barrier,
	// so a checkpoint capture (which holds every barrier for write)
	// never races an update — the sketch is quiescent at the cut.
	if l.sc.sketches != nil {
		l.sc.sketches[shard].Update(pi.Key.Hash())
	}
	var (
		feats   []float64
		key     flow.Key
		reg     netsim.Time
		last    netsim.Time
		updates int
	)
	l.tables.ObserveFunc(pi, func(st *flow.State) {
		feats = st.Features(nil, l.cfg.Features)
		key, reg, last, updates = st.Key, st.RegisteredAt, st.LastAt, st.Updates
	})
	if l.journeys.ShouldSample() {
		l.journeys.Begin(key.String(), updates, "ingest")
	}
	l.upsertFlow(key, feats, reg, last, updates, pi.Label, pi.AttackType)
	l.jHop(key, updates, "journal")
	l.Snapshots.Add(1)
	l.met.snapshots.Inc()
	l.met.stageIngest.Since(start)
}

// upsertFlow writes one snapshot, retrying transient failures with
// exponential backoff when the store surfaces them. A write still
// failing after the retry budget is dropped — counted, tainted, and
// raised to shedding, because a lost snapshot is a lost record.
func (l *Live) upsertFlow(key flow.Key, feats []float64, reg, last netsim.Time, updates int, truth bool, attackType string) {
	if l.fdb == nil {
		l.DB.UpsertFlow(key, feats, reg, last, updates, truth, attackType)
		return
	}
	backoff := l.cfg.StoreRetryBackoff
	for attempt := 0; ; attempt++ {
		_, err := l.fdb.TryUpsertFlow(key, feats, reg, last, updates, truth, attackType)
		if err == nil {
			return
		}
		l.StoreRetries.Add(1)
		l.met.storeRetries.Inc()
		l.noteDegraded("store upsert retry")
		if attempt >= l.cfg.StoreRetries {
			l.StoreDropped.Add(1)
			l.met.storeDropped.Inc()
			l.taintKey(key)
			l.jAbort(key, updates, "store_dropped")
			l.event("store write dropped", "component", "store",
				"flow", key.String(), "attempts", attempt+1)
			l.noteShedding("store write dropped")
			return
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Decisions returns a copy of the decision log.
func (l *Live) Decisions() []Decision {
	l.decMu.Lock()
	defer l.decMu.Unlock()
	out := make([]Decision, len(l.decisions))
	copy(out, l.decisions)
	return out
}

// DecisionCount returns the decision log's length without copying.
func (l *Live) DecisionCount() int {
	l.decMu.Lock()
	defer l.decMu.Unlock()
	return len(l.decisions)
}

// AbandonedByReason returns the per-reason abandonment counts
// (reasons: stop, panic, worker_down, no_model, malformed).
func (l *Live) AbandonedByReason() map[string]int64 {
	return l.met.abandoned.Values()
}

// abandon accounts n records lost for a reason.
func (l *Live) abandon(n int64, reason string) {
	if n <= 0 {
		return
	}
	l.Abandoned.Add(n)
	l.met.abandoned.With(reason).Add(n)
}

// taintKey marks a flow as fault-touched when an injector is wired.
func (l *Live) taintKey(key flow.Key) {
	if l.cfg.Fault != nil {
		l.cfg.Fault.Taint(key.String())
	}
}

// workerFor maps a shard to its prediction worker's channel. The
// static shard→worker assignment (round-robin) is what gives workers
// shard affinity: one flow is always predicted by one worker.
func (l *Live) workerFor(shard int) chan queued {
	return l.workerChs[shard%len(l.workerChs)]
}

// shardPoller is one shard's CentralServer: it polls the shard's
// journal through a private cursor and feeds the shard's worker,
// shedding when the worker queue is full and retrying transient
// store errors. Pollers of different shards share no locks.
func (l *Live) shardPoller(shard int) {
	defer l.pollWg.Done()
	ch := l.workerFor(shard)
	polledC := l.met.shardPolled.With(strconv.Itoa(shard))
	ticker := time.NewTicker(l.cfg.PollInterval)
	defer ticker.Stop()
	var cursor uint64
	for {
		select {
		case <-l.quit:
			return
		case <-ticker.C:
			// Checkpoint barrier: while a capture is in progress no new
			// records are polled or handed off, so in-flight work can
			// only drain. Each poller takes only its own shard's lock.
			l.ckptMu[shard].RLock()
			recs, cur, ok := l.pollOnce(shard, cursor)
			l.met.polls.Inc()
			if !ok {
				// Transient poll failure: the cursor is unchanged, so
				// the same entries come back at the next tick.
				l.ckptMu[shard].RUnlock()
				l.reassessHealth()
				continue
			}
			cursor = cur
			polled := time.Now()
			for _, rec := range recs {
				l.Polled.Add(1)
				l.met.polledRecs.Inc()
				polledC.Inc()
				// Journal wait: snapshot write → this poll.
				updated := time.Unix(0, int64(rec.UpdatedAt))
				l.met.stageJournal.ObserveDuration(polled.Sub(updated))
				l.jHop(rec.Key, rec.Updates, "poll")
				tr := l.tracer.Sample()
				if tr != nil {
					tr.Flow = rec.Key.String()
				}
				tr.StageAt("journal_wait", updated, polled)
				select {
				case ch <- queued{rec: rec, enqueuedAt: polled, tr: tr}:
				default:
					l.Shed.Add(1)
					l.met.shed.Inc()
					l.taintKey(rec.Key)
					l.jAbort(rec.Key, rec.Updates, "shed")
					l.noteShedding("worker queue full")
				}
			}
			l.ckptMu[shard].RUnlock()
			l.reassessHealth()
		}
	}
}

// pollOnce polls one shard's journal, retrying transient store errors
// with backoff inside the tick. On persistent failure it reports !ok
// and the poller retries at the next tick — the cursor only advances
// on success, so no journal entry is ever skipped.
func (l *Live) pollOnce(shard int, cursor uint64) ([]store.FlowRecord, uint64, bool) {
	if l.fdb == nil {
		recs, cur := l.DB.PollShard(shard, cursor, l.cfg.PollBatch)
		l.DB.TrimShard(shard, cur)
		return recs, cur, true
	}
	backoff := l.cfg.StoreRetryBackoff
	for attempt := 0; ; attempt++ {
		recs, cur, err := l.fdb.TryPollShard(shard, cursor, l.cfg.PollBatch)
		if err == nil {
			l.DB.TrimShard(shard, cur)
			return recs, cur, true
		}
		l.StoreRetries.Add(1)
		l.met.storeRetries.Inc()
		l.noteDegraded("store poll retry")
		if attempt >= l.cfg.StoreRetries || !l.sleepQuit(backoff) {
			return nil, cursor, false
		}
		backoff *= 2
	}
}

// sweeper periodically evicts flows idle past FlowIdleTimeout.
func (l *Live) sweeper() {
	defer l.pollWg.Done()
	ticker := time.NewTicker(l.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-ticker.C:
			l.sweep()
		}
	}
}

// onEvict is the flow table's eviction hook: when Sweep removes a
// flow, its database record and vote window go with it — exact,
// single-pass eviction instead of the old two-pass scan, which left
// store rows behind for flows created between the scan and the sweep
// and let the store grow without bound under spoofed-source floods.
// Runs under the evicting table shard's lock; it takes only the store
// and window locks (table → store, table → window — no path takes
// those locks and then the table's, so the order is acyclic).
func (l *Live) onEvict(key flow.Key) {
	l.DB.DeleteFlow(key)
	l.votes.drop(key)
}

// sweep evicts flows idle past FlowIdleTimeout. The table sweep fires
// onEvict per eviction, which removes the database record and vote
// window in the same pass; a safety pass then clears orphaned windows
// (a late decision can re-create a window after its flow was swept).
func (l *Live) sweep() {
	// Checkpoint barrier: sweeps mutate all three stores at once and
	// must not interleave with a capture, so every shard's barrier is
	// held for read — in ascending order, the same order a capture
	// takes the write side.
	for s := range l.ckptMu {
		l.ckptMu[s].RLock()
	}
	defer func() {
		for s := range l.ckptMu {
			l.ckptMu[s].RUnlock()
		}
	}()
	evicted := l.tables.Sweep(now())
	l.votes.sweep(func(key flow.Key) bool { return l.tables.Get(key, nil) })
	l.Evictions.Add(int64(evicted))
	l.met.evictions.Add(int64(evicted))
	if evicted > 0 {
		l.event("flows evicted", "component", "sweep", "evicted", evicted)
	}
}

// superviseWorker owns one prediction worker slot: it runs the worker
// and, when the worker dies to a panic, restarts it with exponential
// backoff under the restart budget. A worker that exhausts the budget
// is declared down — its queue is drained into
// intddos_records_abandoned{reason="worker_down"} so shutdown
// accounting still closes, and the pipeline reports shedding.
func (l *Live) superviseWorker(w int) {
	defer l.workWg.Done()
	const maxBackoff = time.Second
	backoff := l.cfg.WorkerRestartBackoff
	restarts := 0
	for {
		if l.runWorker(w) {
			return // clean exit: channel closed at Stop
		}
		l.met.workerPanics.Inc()
		if l.cfg.WorkerRestartBudget >= 0 && restarts >= l.cfg.WorkerRestartBudget {
			l.workersDown.Add(1)
			l.event("worker down", "component", "worker",
				"worker", w, "restarts", restarts)
			l.noteShedding(fmt.Sprintf("worker %d restart budget exhausted", w))
			l.abandonRemaining(w)
			return
		}
		restarts++
		l.WorkerRestarts.Add(1)
		l.met.workerRestarts.Inc()
		l.event("worker restarted", "component", "worker",
			"worker", w, "restarts", restarts)
		l.noteDegraded(fmt.Sprintf("worker %d restarted", w))
		l.sleepQuit(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// abandonRemaining consumes a down worker's queue until Stop closes
// it, accounting every record. Consuming (instead of leaving the
// queue to fill) keeps the shard pollers running, so flows of other
// shards mapped to healthy workers are unaffected.
func (l *Live) abandonRemaining(w int) {
	for q := range l.workerChs[w] {
		l.abandon(1, "worker_down")
		l.taintKey(q.rec.Key)
		l.jAbort(q.rec.Key, q.rec.Updates, "worker_down")
	}
}

// runWorker is one prediction worker run: it drains the worker's
// channel into micro-batches and scores them until the channel closes
// (clean=true) or a panic escapes a batch (clean=false, after
// accounting the batch's unfinished records). Panics inside a model
// are already contained by the scoring path; what reaches here is an
// injected worker fault or a genuine bug in the voting/logging path —
// either way the supervisor decides whether to restart.
func (l *Live) runWorker(w int) (clean bool) {
	ch := l.workerChs[w]
	maxBatch := l.cfg.PredictBatch
	scratch := &scoreScratch{}
	var cur workerBatch
	cur.batch = make([]queued, 0, maxBatch)
	defer func() {
		if r := recover(); r != nil {
			clean = false
			rest := cur.batch[cur.done:]
			l.abandon(int64(len(rest)), "panic")
			for _, q := range rest {
				l.taintKey(q.rec.Key)
				l.jAbort(q.rec.Key, q.rec.Updates, "panic")
			}
		}
	}()
	for {
		q, ok := <-ch
		if !ok {
			return true
		}
		if l.stopping() && !l.cfg.DrainOnStop {
			l.abandon(1, "stop")
			l.jAbort(q.rec.Key, q.rec.Updates, "stop")
			continue
		}
		cur.batch = append(cur.batch[:0], q)
		cur.done = 0
		closed := l.fillBatch(&cur, ch, maxBatch)
		if l.cfg.Fault.WorkerPanicNow() {
			panic(fault.InjectedPanic{Site: fault.SiteWorkerPanic})
		}
		busyT0 := time.Now()
		l.predictBatch(&cur, scratch)
		l.workerBusy[w].Add(int64(time.Since(busyT0)))
		cur.batch = cur.batch[:0]
		cur.done = 0
		if closed {
			return true
		}
	}
}

// fillBatch tops up the current micro-batch from backlog already
// queued, never blocking. Reports whether the channel closed while
// filling — the batch in hand is still scored.
func (l *Live) fillBatch(cur *workerBatch, ch chan queued, maxBatch int) (closed bool) {
	for len(cur.batch) < maxBatch {
		select {
		case q, ok := <-ch:
			if !ok {
				return true
			}
			cur.batch = append(cur.batch, q)
		default:
			return false
		}
	}
	return false
}

// predictBatch scores one micro-batch through the Prediction module
// and finishes every record in arrival order, so the per-flow decision
// sequence a single worker produces is independent of how records
// were grouped into batches and of which cascade stage decided them.
// Records without a verdict (malformed snapshot, no model available)
// are abandoned with a reason, never lost silently.
func (l *Live) predictBatch(b *workerBatch, s *scoreScratch) {
	dequeued := time.Now()
	for _, q := range b.batch {
		l.met.stageQueue.ObserveDuration(dequeued.Sub(q.enqueuedAt))
		q.tr.StageAt("queue_wait", q.enqueuedAt, dequeued)
		l.jHop(q.rec.Key, q.rec.Updates, "batch")
	}
	verdicts := l.sc.score(s, b.batch)
	predicted := time.Now()
	// The batch call's cost is attributed evenly to its samples: at
	// batch size one this is the whole call.
	perSample := predicted.Sub(dequeued) / time.Duration(len(b.batch))
	l.met.batchSize.Observe(float64(len(b.batch)))
	degraded, decided := false, 0
	for i, v := range verdicts {
		q := b.batch[i]
		if v.lost != lostMalformed {
			l.met.stagePredict.Observe(perSample.Seconds())
			l.met.sampleLatency.Observe(perSample.Seconds())
			q.tr.StageAt("scale_predict", dequeued, predicted)
			l.jHop(q.rec.Key, q.rec.Updates, "predict")
			if l.sc.cascade != nil {
				switch {
				case v.stage == 0:
					l.met.triageFallthrough.Inc()
				case v.stage == 1:
					l.met.triageExitStage1.Inc()
				default:
					l.met.triageExits.With(strconv.Itoa(v.stage)).Inc()
				}
			}
		}
		if v.lost != "" {
			l.abandon(1, v.lost)
			l.taintKey(q.rec.Key)
			l.jAbort(q.rec.Key, q.rec.Updates, v.lost)
			b.done++
			continue
		}
		if v.degraded {
			// Degraded vote: decisions still flow, at reduced fidelity.
			degraded = true
			l.taintKey(q.rec.Key)
		}
		l.finish(q, v, predicted)
		decided++
		b.done++
	}
	if degraded {
		l.met.degradedBatches.Inc()
	}
	l.Predictions.Add(int64(decided))
	l.met.predictions.Add(int64(decided))
}

// finish applies window voting on the flow's shard and logs the
// decision.
func (l *Live) finish(q queued, v verdict, predicted time.Time) {
	rec := q.rec
	d := newDecision(rec, v, l.votes.vote(rec.Key, v.raw), now())
	l.decMu.Lock()
	l.decisions = append(l.decisions, d)
	cb := l.OnDecision
	l.decMu.Unlock()

	typ := rec.AttackType
	if typ == "" {
		typ = "unknown"
	}
	l.met.decisions.With(typ).Inc()
	if !d.Correct() {
		l.met.misclass.With(typ).Inc()
	}
	l.met.predictLatency.Observe(d.Latency.Seconds())
	voted := time.Now()
	l.met.stageVote.ObserveDuration(voted.Sub(predicted))
	q.tr.StageAt("vote", predicted, voted)
	l.tracer.Finish(q.tr)

	l.DB.AppendPrediction(d.prediction())
	if cb != nil {
		cb(d)
	}
	// Completion mark for the checkpoint barrier: the record's window
	// vote, decision, and prediction are all durable-state-visible, so
	// a capture that observes this count sees everything the record
	// produced.
	l.jComplete(rec.Key, rec.Updates)
	l.completed.Add(1)
}

// onModel is the scorer's member-health observer: failures count and
// degrade the pipeline, transitions flip the per-model health gauge.
func (l *Live) onModel(name string, err error, changed bool) {
	if err == nil {
		l.met.modelHealthy.With(name).Set(1)
		l.event("model recovered", "component", "health", "model", name)
		return
	}
	l.ModelFailures.Add(1)
	l.met.modelFailures.With(name).Inc()
	if changed {
		l.met.modelHealthy.With(name).Set(0)
	}
	l.noteDegraded("model " + name + " failed")
}
