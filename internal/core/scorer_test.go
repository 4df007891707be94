package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// panicModel is an ensemble member whose every scoring call fails.
type panicModel struct{ stubModel }

func (panicModel) Predict([]float64) int { panic("model down") }

// sizeProba is a stage-0 model whose confidence depends on the row:
// small packets are confident attacks (p=1), jumbo packets confident
// benign (p=0), everything between an unsure benign (p=0.4).
type sizeProba struct{ stubModel }

func (sizeProba) Proba(x []float64) float64 {
	switch {
	case x[1] < 100:
		return 1
	case x[1] > 900:
		return 0
	}
	return 0.4
}

func (p sizeProba) PredictProbaBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = p.Proba(x)
	}
	return out
}

// scorerRows is one batch of feature rows spanning every model's
// decision boundary: packet sizes 40 (attack to a and b), 300 (attack
// to b only) and 1000 (benign to both), each seen from its own flow.
func scorerRows() []queued {
	width := len(flow.INTFeatures())
	var batch []queued
	for i, size := range []float64{40, 300, 1000, 40, 1000, 300} {
		f := make([]float64, width)
		f[1] = size
		batch = append(batch, queued{rec: store.FlowRecord{
			Key: simObs(uint16(100+i), 0, 0, false, "").Key, Features: f,
		}})
	}
	return batch
}

// TestScorerMatchesReference pins the shared Prediction module against
// the reference ensemble: every full-ensemble verdict equals
// ml.EnsembleVotes under ml.QuorumLabels over the members that voted,
// whatever the tier, health, or shape of the rest of the batch.
func TestScorerMatchesReference(t *testing.T) {
	a := stubModel{name: "a", index: 1, thresh: 100}
	b := stubModel{name: "b", index: 1, thresh: 500}
	c := stubModel{name: "c", index: 1, thresh: 100, invert: true}
	down := panicModel{stubModel{name: "down"}}
	stage0 := sizeProba{stubModel{name: "p0", index: 1, thresh: 100}}
	suspicious := func(sc *scorer, batch []queued) {
		for i := 0; i < 1000; i++ {
			sc.sketches[0].Update(batch[0].rec.Key.Hash())
		}
	}
	cases := []struct {
		name      string
		models    []ml.Classifier
		threshold float64 // cascade threshold; 0 means no cascade
		prep      func(*scorer, []queued)
		malformed int // batch index given a wrong width, -1 none
		// wantStage is each row's expected provenance; -1 no verdict.
		wantStage []int
	}{
		{name: "untiered", models: []ml.Classifier{a, b, c}, malformed: -1,
			wantStage: []int{0, 0, 0, 0, 0, 0}},
		{name: "inert cascade", models: []ml.Classifier{a, b, c}, threshold: -1, malformed: -1,
			wantStage: []int{0, 0, 0, 0, 0, 0}},
		{name: "confident exits, unsure falls through", models: []ml.Classifier{a, b, c}, threshold: 0.9, malformed: -1,
			wantStage: []int{1, 0, 1, 1, 1, 0}},
		{name: "sketch vetoes benign exits", models: []ml.Classifier{a, b, c}, threshold: 0.9, malformed: -1,
			prep: suspicious, wantStage: []int{1, 0, 0, 1, 0, 0}},
		{name: "one member down", models: []ml.Classifier{a, down, b}, malformed: -1,
			wantStage: []int{0, 0, 0, 0, 0, 0}},
		{name: "every member down", models: []ml.Classifier{down, down}, malformed: -1,
			wantStage: []int{-1, -1, -1, -1, -1, -1}},
		{name: "every member down, exits still decide", models: []ml.Classifier{down}, threshold: 0.9, malformed: -1,
			wantStage: []int{1, -1, 1, 1, 1, -1}},
		{name: "malformed row", models: []ml.Classifier{a, b, c}, threshold: 0.9, malformed: 1,
			wantStage: []int{1, -1, 1, 1, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cascade *ml.Cascade
			if tc.threshold != 0 {
				cascade = &ml.Cascade{Stages: []ml.CascadeStage{{Name: "p0", Model: stage0, Threshold: tc.threshold}}}
			}
			scaler := identityScaler(len(flow.INTFeatures()))
			quorum, window := 0, 0
			if _, err := resolvePrediction(tc.models, scaler, &quorum, &window, false, 0, nil); err != nil {
				t.Fatal(err)
			}
			sc := newScorer(tc.models, scaler, quorum, cascade, 1)
			batch := scorerRows()
			if tc.malformed >= 0 {
				batch[tc.malformed].rec.Features = batch[tc.malformed].rec.Features[:3]
			}
			if tc.prep != nil {
				tc.prep(sc, batch)
			}
			got := sc.score(&scoreScratch{}, batch)

			// Reference: the healthy members' votes over every row,
			// absent columns re-inserted for the members that are down.
			var healthy []ml.Classifier
			for _, m := range tc.models {
				if _, ok := m.(panicModel); !ok {
					healthy = append(healthy, m)
				}
			}
			X := make([][]float64, len(batch))
			for i, q := range batch {
				X[i] = q.rec.Features
			}
			refQuorum := quorum
			if len(healthy) < len(tc.models) {
				refQuorum = len(healthy)/2 + 1
			}
			for i, v := range got {
				want := tc.wantStage[i]
				if want < 0 {
					if v.lost == "" {
						t.Errorf("row %d: verdict %+v, want none", i, v)
					}
					if i == tc.malformed && v.lost != lostMalformed {
						t.Errorf("row %d: lost %q, want %q", i, v.lost, lostMalformed)
					}
					continue
				}
				if v.lost != "" || v.stage != want {
					t.Errorf("row %d: stage %d lost %q, want stage %d", i, v.stage, v.lost, want)
					continue
				}
				if want > 0 {
					label := ml.PredictBatch(stage0, X[i:i+1])[0]
					if v.raw != label || !reflect.DeepEqual(v.votes, []int{label}) {
						t.Errorf("row %d: exit %+v, want stage-0 label %d", i, v, label)
					}
					continue
				}
				refVotes, refOnes := ml.EnsembleVotes(healthy, X[i:i+1])
				votes := make([]int, 0, len(tc.models))
				h := 0
				for _, m := range tc.models {
					if _, ok := m.(panicModel); ok {
						votes = append(votes, VoteAbsent)
						continue
					}
					votes = append(votes, refVotes[0][h])
					h++
				}
				raw := ml.QuorumLabels(refOnes, refQuorum)[0]
				if v.raw != raw || !reflect.DeepEqual(v.votes, votes) {
					t.Errorf("row %d: votes %v raw %d, want %v raw %d", i, v.votes, v.raw, votes, raw)
				}
				if v.degraded != (len(healthy) < len(tc.models)) {
					t.Errorf("row %d: degraded = %v", i, v.degraded)
				}
			}
		})
	}
}

// TestVoteWindows pins the window vote: a strict majority of the last
// VoteWindow raw verdicts, ties benign, old verdicts sliding out, and
// the sweep dropping windows whose flow is gone.
func TestVoteWindows(t *testing.T) {
	k1 := simObs(1, 0, 0, false, "").Key
	k2 := simObs(2, 0, 0, false, "").Key
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			v := newVoteWindows(shards, 3)
			v.track = true
			steps := []struct{ raw, want int }{
				{1, 1}, // [1]
				{0, 0}, // [1 0]: a tie resolves benign
				{1, 1}, // [1 0 1]
				{0, 0}, // [0 1 0]: the first verdict slid out
				{0, 0}, // [1 0 0]
				{1, 0}, // [0 0 1]
				{1, 1}, // [0 1 1]
			}
			for i, s := range steps {
				if got := v.vote(k1, s.raw); got != s.want {
					t.Fatalf("step %d: label %d, want %d", i, got, s.want)
				}
			}
			v.vote(k2, 1)
			if n := v.count(); n != 2 {
				t.Fatalf("count = %d, want 2", n)
			}
			v.sweep(func(k flow.Key) bool { return k == k2 })
			if n := v.count(); n != 1 {
				t.Fatalf("count after sweep = %d, want 1", n)
			}
			sh := v.shard(k1)
			if _, ok := sh.removed[k1]; !ok {
				t.Error("swept window not marked removed for the next delta")
			}
			if _, ok := sh.dirty[k1]; ok {
				t.Error("swept window still marked dirty")
			}
			if got := v.vote(k1, 1); got != 1 {
				t.Errorf("re-created window label %d, want a fresh [1]", got)
			}
		})
	}
}

// TestMechanismQuorumClamped pins the shared quorum defaulting: a
// quorum larger than the ensemble clamps to a majority of it in both
// shells, so a one-model ensemble can still call an attack.
func TestMechanismQuorumClamped(t *testing.T) {
	cfg := testConfig(attackDetector())
	cfg.ModelQuorum = 3
	m, err := New(netsim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q := m.Config().ModelQuorum; q != 1 {
		t.Errorf("mechanism quorum = %d for a 1-model ensemble, want 1", q)
	}
	lcfg := liveConfig(attackDetector())
	lcfg.ModelQuorum = 3
	l, err := NewLive(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.cfg.ModelQuorum != 1 {
		t.Errorf("live quorum = %d for a 1-model ensemble, want 1", l.cfg.ModelQuorum)
	}
}

// TestMechanismMatchesLive feeds one timestamped observation stream
// to the simulated mechanism and to the wall-clock runtime: with the
// same Prediction module and window vote behind both shells, every
// flow's (Seq, Label, Votes, Stage) sequence must be identical, with
// triage off and with a cascade that exits some rows.
func TestMechanismMatchesLive(t *testing.T) {
	models := []ml.Classifier{
		stubModel{name: "a", index: 1, thresh: 100},
		stubModel{name: "b", index: 1, thresh: 500},
		stubModel{name: "c", index: 1, thresh: 100, invert: true},
	}
	var stream []flow.PacketInfo
	sizes := []int{40, 300, 1000}
	for i := 0; i < 90; i++ {
		at := netsim.Time(i+1) * 50 * netsim.Microsecond
		stream = append(stream, simObs(uint16(7+i%3), at, sizes[(i/3+i)%3], i%3 == 0, "mix"))
	}
	perFlow := func(ds []Decision) map[flow.Key][]string {
		out := make(map[flow.Key][]string)
		for _, d := range ds {
			out[d.Key] = append(out[d.Key], fmt.Sprintf("seq=%d label=%d votes=%v stage=%d", d.Seq, d.Label, d.Votes, d.Stage))
		}
		return out
	}
	for _, triage := range []bool{false, true} {
		t.Run(fmt.Sprintf("triage=%v", triage), func(t *testing.T) {
			eng := netsim.NewEngine()
			cfg := testConfig(models...)
			lcfg := liveConfig(models...)
			if triage {
				stage0 := sizeProba{stubModel{name: "p0", index: 1, thresh: 100}}
				cfg.Triage, cfg.TriageThreshold, cfg.TriageModel = true, 0.9, stage0
				lcfg.Triage, lcfg.TriageThreshold, lcfg.TriageModel = true, 0.9, stage0
			}
			m, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			for _, pi := range stream {
				pi := pi
				eng.Schedule(pi.At, func() { m.Observe(pi) })
			}
			eng.RunUntil(netsim.Second)

			l, err := NewLive(lcfg)
			if err != nil {
				t.Fatal(err)
			}
			l.Start()
			defer l.Stop()
			for _, pi := range stream {
				l.Ingest(pi)
			}
			if !waitFor(t, 5*time.Second, func() bool { return l.DecisionCount() == len(stream) }) {
				t.Fatalf("live decisions = %d, want %d", l.DecisionCount(), len(stream))
			}
			if len(m.Decisions) != len(stream) {
				t.Fatalf("mechanism decisions = %d, want %d", len(m.Decisions), len(stream))
			}
			sim, live := perFlow(m.Decisions), perFlow(l.Decisions())
			exited := 0
			for _, d := range m.Decisions {
				if d.Stage > 0 {
					exited++
				}
			}
			if triage && (exited == 0 || exited == len(stream)) {
				t.Fatalf("cascade exited %d of %d rows; the case needs both tiers", exited, len(stream))
			}
			if !reflect.DeepEqual(sim, live) {
				for k := range sim {
					if !reflect.DeepEqual(sim[k], live[k]) {
						t.Errorf("flow %s diverged:\nmechanism: %v\nlive:      %v", k, sim[k], live[k])
					}
				}
			}
		})
	}
}
