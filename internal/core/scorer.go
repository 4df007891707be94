package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/ml/sketch"
	"github.com/amlight/intddos/internal/obs"
)

// This file is the Prediction module of Figure 2 and the Data
// Processor's window vote (§IV-C4), shared by both shells: Mechanism
// drives them from the simulated clock, Live from its prediction
// workers. Scoring is standardize → optional early-exit cascade →
// fault-isolated ensemble vote → quorum, one verdict per row; the
// window vote then smooths each flow's raw verdicts into its label.

// VoteAbsent marks a model that produced no vote for a record — it
// was unhealthy or its scoring call failed — in Decision.Votes. The
// quorum never counts absent votes.
const VoteAbsent = -1

// Reasons a row gets no verdict; Live counts them as abandonments.
const (
	lostMalformed = "malformed" // feature width disagrees with the scaler
	lostNoModel   = "no_model"  // every ensemble member is out
)

// verdict is the Prediction module's answer for one row.
type verdict struct {
	// votes are the per-model votes behind raw (VoteAbsent for members
	// out of the vote), or the single stage-0 vote of a row a cascade
	// stage exited. Decisions retain them, so every batch gets fresh
	// storage.
	votes []int
	// raw is the quorum label, or the exiting stage's label.
	raw int
	// stage is the cascade provenance: 0 for the full ensemble, n >= 1
	// when cascade stage n exited the row.
	stage int
	// degraded marks a full-ensemble verdict reached with members out,
	// under the majority-of-available quorum.
	degraded bool
	// lost is why the row has no verdict (lostMalformed, lostNoModel);
	// empty when it has one.
	lost string
}

// resolvePrediction validates the Prediction module's configuration
// and applies the defaults both shells share: the quorum (2-of-3 for
// the paper's ensemble, clamped to the ensemble size), the vote
// window (3), and — with triage on — the stage-0 cascade model.
func resolvePrediction(models []ml.Classifier, scaler *ml.StandardScaler, quorum, window *int,
	triage bool, threshold float64, triageModel ml.Classifier) (*ml.Cascade, error) {
	if len(models) == 0 {
		return nil, errors.New("core: no models configured")
	}
	if scaler == nil {
		return nil, errors.New("core: scaler required")
	}
	// A model that reports its trained input width must agree with the
	// scaler — a mismatched bundle would otherwise fail every batch.
	for _, m := range models {
		if w := ml.ExpectedFeatures(m); w > 0 && w != len(scaler.Mean) {
			return nil, fmt.Errorf("core: model %s expects %d features, scaler has %d",
				m.Name(), w, len(scaler.Mean))
		}
	}
	if *quorum <= 0 {
		*quorum = (len(models) + 2) / 2
	}
	if *quorum > len(models) {
		*quorum = (len(models) + 1) / 2
	}
	if *window <= 0 {
		*window = 3
	}
	if !triage {
		return nil, nil
	}
	pm, ok := resolveTriageModel(triageModel, models)
	if !ok {
		return nil, errors.New("core: triage enabled but no probability-capable model available")
	}
	if w := ml.ExpectedFeatures(pm); w > 0 && w != len(scaler.Mean) {
		return nil, fmt.Errorf("core: triage model %s expects %d features, scaler has %d",
			pm.Name(), w, len(scaler.Mean))
	}
	return &ml.Cascade{Stages: []ml.CascadeStage{
		{Name: pm.Name(), Model: pm, Threshold: threshold},
	}}, nil
}

// scorer is the Prediction module. It is safe for concurrent use by
// many prediction workers, each with its own scoreScratch, as long as
// the models are.
type scorer struct {
	models []ml.Classifier
	scaler *ml.StandardScaler
	quorum int
	health []*modelHealth

	// cascade is the early-exit stage (nil: untiered); sketches are the
	// per-shard triage sketches whose suspicion vetoes benign exits.
	cascade  *ml.Cascade
	sketches []*sketch.Sketch

	// failThreshold consecutive failures take a member out of the vote
	// until a probe probeAfter later succeeds (zero values: out on the
	// first failure, probed on every batch).
	failThreshold int
	probeAfter    time.Duration

	// Observers, nil in the simulated shell: the cascade pass's cost,
	// and member health events — a failed scoring call (err non-nil;
	// changed when the member just turned unhealthy) or a recovery
	// (err nil, changed).
	triageLatency *obs.Histogram
	onModel       func(name string, err error, changed bool)
}

// newScorer builds the Prediction module over the resolved
// configuration, with one triage sketch per shard when cascade is
// set. Members sharing a name are told apart by position, so fault
// targeting and health reporting stay per member.
func newScorer(models []ml.Classifier, scaler *ml.StandardScaler, quorum int, cascade *ml.Cascade, shards int) *scorer {
	sc := &scorer{
		models:  models,
		scaler:  scaler,
		quorum:  quorum,
		health:  make([]*modelHealth, len(models)),
		cascade: cascade,
	}
	for i, m := range models {
		name := m.Name()
		for j := 0; j < i; j++ {
			if sc.health[j].name == name {
				name = name + "#" + strconv.Itoa(i)
				break
			}
		}
		sc.health[i] = &modelHealth{name: name}
	}
	if cascade != nil {
		sc.sketches = make([]*sketch.Sketch, shards)
		for i := range sc.sketches {
			sc.sketches[i] = sketch.New(0, 0)
		}
	}
	return sc
}

// sketchFor returns the triage sketch of key's shard; only valid with
// a cascade.
func (sc *scorer) sketchFor(key flow.Key) *sketch.Sketch {
	if len(sc.sketches) == 1 {
		return sc.sketches[0]
	}
	return sc.sketches[key.Shard(len(sc.sketches))]
}

// scoreScratch is one caller's reusable scoring buffers. Only the flat
// per-row vote storage is allocated per batch, because decisions
// retain it; do not share one scratch between goroutines.
type scoreScratch struct {
	rows, scaled [][]float64
	pos          []int // batch index of each well-formed row
	votes        [][]int
	ones         []int
	out          []verdict

	// Tiered-inference buffers.
	cs     ml.CascadeScratch
	sus    []bool
	sub    [][]float64
	subPos []int
}

// score runs the Prediction module over one batch and returns one
// verdict per record, in batch order, valid until the next call with
// the same scratch. A row whose width disagrees with the scaler is
// lost as malformed instead of panicking a kernel. With a cascade,
// confident rows exit at their stage — never benign while their
// shard's sketch flags them suspicious — and only the remainder pays
// for the ensemble. With every member healthy the ensemble verdicts
// are row for row ml.EnsembleVotes under ml.QuorumLabels.
func (sc *scorer) score(s *scoreScratch, batch []queued) []verdict {
	if cap(s.out) < len(batch) {
		s.out = make([]verdict, len(batch))
	}
	out := s.out[:len(batch)]
	want := len(sc.scaler.Mean)
	s.rows, s.pos = s.rows[:0], s.pos[:0]
	for i := range batch {
		out[i] = verdict{}
		if f := batch[i].rec.Features; len(f) == want {
			s.rows = append(s.rows, f)
			s.pos = append(s.pos, i)
		} else {
			out[i].lost = lostMalformed
		}
	}
	if len(s.rows) == 0 {
		return out
	}
	s.scaled = sc.scaler.TransformBatch(s.scaled, s.rows)
	X, pos := s.scaled, s.pos
	if sc.cascade != nil {
		X, pos = sc.triage(s, batch, out)
	}
	if len(X) == 0 {
		return out
	}
	votes, ones, navail := sc.vote(s, X)
	quorum := sc.quorum
	if navail < len(sc.models) {
		// Members out: degrade to majority-of-available (2-of-2,
		// 1-of-1) so detection keeps answering instead of requiring
		// votes that can no longer arrive.
		quorum = navail/2 + 1
	}
	for j, i := range pos {
		if navail == 0 {
			out[i].lost = lostNoModel
			continue
		}
		out[i].votes = votes[j]
		if ones[j] >= quorum {
			out[i].raw = 1
		}
		out[i].degraded = navail < len(sc.models)
	}
	return out
}

// triage runs the cascade over the standardized rows X (at batch
// positions s.pos), fills the verdicts of the rows it exits, and
// returns the fall-through remainder in batch order.
func (sc *scorer) triage(s *scoreScratch, batch []queued, out []verdict) ([][]float64, []int) {
	t0 := time.Now()
	X, pos := s.scaled, s.pos
	if cap(s.sus) < len(X) {
		s.sus = make([]bool, len(X))
	}
	sus := s.sus[:len(X)]
	for j, i := range pos {
		key := batch[i].rec.Key
		sus[j] = sc.sketchFor(key).Suspicious(key.Hash(),
			triageHeavyHitterFrac, triageEntropyFloor, triageMinSample)
	}
	stage, label := sc.cascade.TriageBatch(X, sus, &s.cs)
	sc.triageLatency.Since(t0)
	nExit := 0
	for _, st := range stage {
		if st > 0 {
			nExit++
		}
	}
	exitFlat := make([]int, nExit)
	sub, subPos := s.sub[:0], s.subPos[:0]
	for j, i := range pos {
		if stage[j] == 0 {
			sub = append(sub, X[j])
			subPos = append(subPos, i)
			continue
		}
		ev := exitFlat[:1:1]
		exitFlat = exitFlat[1:]
		ev[0] = label[j]
		out[i] = verdict{votes: ev, raw: label[j], stage: stage[j]}
	}
	s.sub, s.subPos = sub, subPos
	return sub, subPos
}

// vote runs the ensemble over X with per-member fault isolation: each
// member scores through ml.TryPredictBatch (panic-contained, fallible
// path when wrapped); a member that fails or is out contributes
// VoteAbsent for every row and its health state machine advances.
// navail is how many members actually voted.
func (sc *scorer) vote(s *scoreScratch, X [][]float64) (votes [][]int, ones []int, navail int) {
	nm := len(sc.models)
	if cap(s.votes) < len(X) {
		s.votes = make([][]int, len(X))
	}
	if cap(s.ones) < len(X) {
		s.ones = make([]int, len(X))
	}
	votes, ones = s.votes[:len(X)], s.ones[:len(X)]
	flat := make([]int, len(X)*nm)
	for i := range votes {
		votes[i] = flat[i*nm : (i+1)*nm : (i+1)*nm]
		ones[i] = 0
	}
	now := time.Now()
	for mi, m := range sc.models {
		mh := sc.health[mi]
		var labels []int
		err := errModelOut
		if mh.available(now, sc.probeAfter) {
			labels, err = ml.TryPredictBatch(m, X)
			if err == nil && len(labels) != len(X) {
				err = fmt.Errorf("core: model %s returned %d labels for %d rows", mh.name, len(labels), len(X))
			}
			if err != nil {
				turned := mh.markFailure(now, sc.failThreshold)
				if sc.onModel != nil {
					sc.onModel(mh.name, err, turned)
				}
			} else if mh.markSuccess() && sc.onModel != nil {
				sc.onModel(mh.name, nil, true)
			}
		}
		if err != nil {
			for i := range votes {
				votes[i][mi] = VoteAbsent
			}
			continue
		}
		navail++
		for i, lab := range labels {
			votes[i][mi] = lab
			ones[i] += lab
		}
	}
	return votes, ones, navail
}

// errModelOut stands in for the scoring call an unhealthy member sits
// out.
var errModelOut = errors.New("core: model out of the vote")

// voteWindows is the Data Processor's per-flow window vote: each flow
// keeps its last size raw verdicts and is labelled by their strict
// majority (ties resolve benign). Windows are striped by flow-key hash,
// one mutex per shard, so workers finishing flows of different shards
// never contend.
//
// With track on, each shard also keeps the delta-checkpoint marks:
// windows voted into since the last capture (dirty) and windows
// dropped since it (removed). A key lives in at most one set — the
// last action wins. Set track before any concurrent use.
type voteWindows struct {
	size   int
	track  bool
	shards []windowShard
}

type windowShard struct {
	mu      sync.Mutex
	windows map[flow.Key][]int
	dirty   map[flow.Key]struct{}
	removed map[flow.Key]struct{}
}

func newVoteWindows(shards, size int) *voteWindows {
	v := &voteWindows{size: size, shards: make([]windowShard, shards)}
	for i := range v.shards {
		v.shards[i] = windowShard{
			windows: make(map[flow.Key][]int),
			dirty:   make(map[flow.Key]struct{}),
			removed: make(map[flow.Key]struct{}),
		}
	}
	return v
}

func (v *voteWindows) shard(key flow.Key) *windowShard {
	if len(v.shards) == 1 {
		return &v.shards[0]
	}
	return &v.shards[key.Shard(len(v.shards))]
}

// vote slides key's window over raw and returns the flow's label.
func (v *voteWindows) vote(key flow.Key, raw int) (label int) {
	sh := v.shard(key)
	sh.mu.Lock()
	w := append(sh.windows[key], raw)
	if len(w) > v.size {
		w = w[len(w)-v.size:]
	}
	sh.windows[key] = w
	if v.track {
		sh.dirty[key] = struct{}{}
		delete(sh.removed, key)
	}
	sum := 0
	for _, x := range w {
		sum += x
	}
	sh.mu.Unlock()
	if 2*sum > len(w) {
		return 1
	}
	return 0
}

// drop deletes key's window (eviction).
func (v *voteWindows) drop(key flow.Key) {
	sh := v.shard(key)
	sh.mu.Lock()
	v.dropLocked(sh, key)
	sh.mu.Unlock()
}

func (v *voteWindows) dropLocked(sh *windowShard, key flow.Key) {
	if _, ok := sh.windows[key]; !ok {
		return
	}
	delete(sh.windows, key)
	if v.track {
		sh.removed[key] = struct{}{}
		delete(sh.dirty, key)
	}
}

// sweep drops the windows of flows that are gone (alive reports
// false): a late decision can re-create a window after its flow was
// evicted. alive is probed without the window lock — the eviction hook
// takes a window lock under the flow table's, so nesting the other way
// would deadlock.
func (v *voteWindows) sweep(alive func(flow.Key) bool) {
	for s := range v.shards {
		sh := &v.shards[s]
		sh.mu.Lock()
		keys := make([]flow.Key, 0, len(sh.windows))
		for key := range sh.windows {
			keys = append(keys, key)
		}
		sh.mu.Unlock()
		for _, key := range keys {
			if !alive(key) {
				sh.mu.Lock()
				v.dropLocked(sh, key)
				sh.mu.Unlock()
			}
		}
	}
}

// count sums live windows across shards.
func (v *voteWindows) count() int {
	n := 0
	for s := range v.shards {
		sh := &v.shards[s]
		sh.mu.Lock()
		n += len(sh.windows)
		sh.mu.Unlock()
	}
	return n
}
