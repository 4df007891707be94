// Golden-file regression tests for the reproduction's text
// artifacts: each table is rendered at scale=tiny seed=42 and
// compared byte-for-byte against testdata/golden/. Run with -update
// to re-bless the files after an intentional change.
//
// The sharded store rides the same rails: TestGoldenTableVISharded
// renders Table VI at shard widths 1, 4, and 8 and requires them
// byte-identical to each other and to the golden file — the
// acceptance gate that makes sharding a deployment substitution, not
// a semantic change.
package main

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/amlight/intddos"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

const (
	goldenScale   = intddos.ScaleTiny
	goldenSeed    = 42
	goldenPackets = 250
)

// goldenCapture memoizes the shared tiny capture across table tests.
var goldenCapture = sync.OnceValues(func() (*intddos.Capture, error) {
	return intddos.Collect(intddos.DataConfig{Scale: goldenScale, Seed: goldenSeed})
})

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/reproduce -run TestGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden output.\n--- golden\n%s\n--- got\n%s\nRe-bless with -update if the change is intentional.",
			name, want, got)
	}
}

func TestGoldenTableI(t *testing.T) {
	c, err := goldenCapture()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.txt", intddos.FormatTableI(intddos.RunTableI(c)))
}

func TestGoldenTableII(t *testing.T) {
	checkGolden(t, "table2.txt", intddos.FormatTableII(intddos.RunTableII()))
}

func TestGoldenTableIII(t *testing.T) {
	c, err := goldenCapture()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := intddos.RunTableIII(c, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	out := intddos.FormatEvalRows("TABLE III: ML model performance, INT vs sFlow (90:10 split)", t3.Rows) +
		"\n" + intddos.FormatConfusion("FIGURE 3: Confusion matrix, RF on INT", t3.RFConfusionINT) +
		"\n" + intddos.FormatConfusion("FIGURE 4: Confusion matrix, RF on sFlow", t3.RFConfusionSFlow)
	checkGolden(t, "table3.txt", out)
}

func TestGoldenTableIV(t *testing.T) {
	c, err := goldenCapture()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := intddos.RunTableIV(c, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4.txt", intddos.FormatEvalRows(
		"TABLE IV: Zero-day performance (train: June 6-10, test: June 11, SlowLoris unseen)", t4))
}

func TestGoldenTableV(t *testing.T) {
	c, err := goldenCapture()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := intddos.RunTableV(c, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table5.txt", intddos.FormatTableVMatrix(t5)+"\n"+intddos.FormatTableV(t5))
}

// tableVI renders Table VI at the golden configuration with the given
// store shard count and scoring batch size.
func tableVI(t *testing.T, shards int, predictBatch ...int) string {
	t.Helper()
	cfg := intddos.LiveConfig{
		Scale: goldenScale, Seed: goldenSeed, PacketsPerType: goldenPackets, Shards: shards,
	}
	if len(predictBatch) > 0 {
		cfg.PredictBatch = predictBatch[0]
	}
	live, err := intddos.RunTableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return intddos.FormatTableVI(live)
}

func TestGoldenTableVI(t *testing.T) {
	checkGolden(t, "table6.txt", tableVI(t, 1))
}

// TestGoldenTableVISharded pins the bit-identity guarantee at every
// shard width: the CentralServer polls the merged global journal
// order (per-shard journals carry global ingest stamps), so the same
// experiment through a ShardedDB of any width must render Table VI
// byte-for-byte identical to one shard (and therefore to the golden
// file).
func TestGoldenTableVISharded(t *testing.T) {
	one := tableVI(t, 1)
	for _, shards := range []int{4, 8} {
		if sharded := tableVI(t, shards); one != sharded {
			t.Errorf("Table VI differs between ShardedDB(1) and ShardedDB(%d):\n--- 1 shard\n%s\n--- %d shards\n%s",
				shards, one, shards, sharded)
		}
	}
	checkGolden(t, "table6.txt", one)
}

// TestGoldenTableVIBatch32 pins the batched-inference bit-identity
// guarantee: scoring the Prediction module's queue in micro-batches of
// 32 must render Table VI byte-for-byte identical to the golden file
// blessed at the paper-faithful batch size of 1. Batching amortizes
// the ensemble call but never moves a decision, a vote, or a latency.
func TestGoldenTableVIBatch32(t *testing.T) {
	checkGolden(t, "table6.txt", tableVI(t, 1, 32))
}

// TestGoldenTableVITriageInert pins the tiered-inference exact mode:
// with the cascade wired in but inert (non-positive threshold) — and
// with triage simply off — Table VI renders byte-for-byte identical
// to the golden file. Enabling the plumbing without a threshold must
// not move a single decision.
func TestGoldenTableVITriageInert(t *testing.T) {
	legacy := tableVI(t, 1)
	inert, err := intddos.RunTableVI(intddos.LiveConfig{
		Scale: goldenScale, Seed: goldenSeed, PacketsPerType: goldenPackets,
		Triage: true, TriageThreshold: -1, TriageModel: "GNB",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := intddos.FormatTableVI(inert); got != legacy {
		t.Errorf("Table VI differs with an inert cascade:\n--- legacy\n%s\n--- inert\n%s", legacy, got)
	}
	checkGolden(t, "table6.txt", legacy)
}

// triageAccuracyBound is the documented Table VI accuracy envelope:
// at the default threshold, no per-type accuracy may move more than
// this many percentage points from the exact pipeline (see
// EXPERIMENTS.md: tiered inference).
const triageAccuracyBound = 2.0

// TestGoldenTableVITriageDelta bounds the accuracy cost of tiered
// inference at the default threshold: per attack type, the triage-on
// accuracy stays within triageAccuracyBound percentage points of the
// triage-off baseline, and at least some records early-exit.
func TestGoldenTableVITriageDelta(t *testing.T) {
	baseCfg := intddos.LiveConfig{Scale: goldenScale, Seed: goldenSeed, PacketsPerType: goldenPackets}
	base, err := intddos.RunTableVI(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	onCfg := baseCfg
	onCfg.Triage = true // threshold/model resolve to the defaults
	on, err := intddos.RunTableVI(onCfg)
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := make(map[string]float64, len(base.Rows))
	for _, r := range base.Rows {
		baseAcc[r.Type] = r.Accuracy
	}
	for _, r := range on.Rows {
		delta := (r.Accuracy - baseAcc[r.Type]) * 100
		t.Logf("%-10s accuracy %.4f -> %.4f (%+.2f pp)", r.Type, baseAcc[r.Type], r.Accuracy, delta)
		if delta < -triageAccuracyBound || delta > triageAccuracyBound {
			t.Errorf("%s accuracy moved %.2f pp under triage, bound is ±%.1f pp",
				r.Type, delta, triageAccuracyBound)
		}
	}
	exited, total := 0, 0
	for _, ds := range on.Decisions {
		for _, d := range ds {
			total++
			if d.Stage > 0 {
				exited++
			}
		}
	}
	t.Logf("exit rate: %d/%d (%.1f%%)", exited, total, 100*float64(exited)/float64(total))
	if exited == 0 {
		t.Error("triage at the default threshold exited nothing — the cascade is dead weight")
	}
}

func TestGoldenLatencyCompanion(t *testing.T) {
	live, err := intddos.RunTableVI(intddos.LiveConfig{
		Scale: goldenScale, Seed: goldenSeed, PacketsPerType: goldenPackets,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := intddos.NewObsRegistry()
	hv := reg.HistogramVec("intddos_predict_latency_seconds", "attack_type", intddos.LatencyBuckets())
	for typ, ds := range live.Decisions {
		h := hv.With(typ)
		for _, d := range ds {
			h.Observe(d.Latency.Seconds())
		}
	}
	checkGolden(t, "table6_latency.txt", intddos.FormatLatencySummary(
		"TABLE VI companion: detection latency percentiles by attack type", hv.Snapshots()))
}
