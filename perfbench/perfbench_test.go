package main

import (
	"encoding/json"
	"net/netip"
	"os"
	"testing"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

func TestSelfTimes(t *testing.T) {
	// a [0,100) with children b [10,30), c [20,50) overlapping b, and d
	// [90,120) running past a's end; b has a child e [12,18).
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},   // a
		{name: 1, parent: 0, start: 10, end: 30},    // b
		{name: 2, parent: 0, start: 20, end: 50},    // c
		{name: 2, parent: 0, start: 90, end: 120},   // d (same name as c)
		{name: 3, parent: 1, start: 12, end: 18},    // e
		{name: 0, parent: -1, start: 200, end: 210}, // a second root, no children
	}
	got := selfTimes(spans, 4)
	want := []layerTime{
		// a: 100 - |[10,50) ∪ [90,100)| = 50; plus the childless root's 10.
		{calls: 2, total: 110, self: 60},
		{calls: 1, total: 20, self: 14}, // b: 20 - e's 6
		{calls: 2, total: 60, self: 60}, // c and d have no children
		{calls: 1, total: 6, self: 6},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("name %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1: percentile sorts
	}
	if p := percentile(xs, 0.5); p.value != 500 || p.n != 1000 {
		t.Errorf("p50 = %+v, want 500 of 1000", p)
	}
	if p := percentile(xs, 0.99); p.value != 990 || p.n != 1000 {
		t.Errorf("p99 = %+v, want 990 of 1000", p)
	}
	if p := percentile(xs, 1); p.value != 1000 {
		t.Errorf("p100 = %+v, want 1000", p)
	}
	if p := percentile(nil, 0.99); p.n != 0 || p.value != 0 {
		t.Errorf("empty = %+v, want zero", p)
	}
	if p := percentile([]float64{7}, 0.99); p.value != 7 || p.n != 1 {
		t.Errorf("single = %+v, want 7 of 1", p)
	}
	if !tailOK(1000, 0.99) || tailOK(999, 0.99) || !tailOK(20, 0.5) {
		t.Error("tailOK: p99 needs 1000 samples, p50 20")
	}
}

func TestLedgerRejectsUnclosed(t *testing.T) {
	closed := ledger{offered: 10, decided: 6, shed: 2, abandoned: 1, dropped: 1}
	if err := closed.check(); err != nil {
		t.Errorf("closed ledger rejected: %v", err)
	}
	if closed.failed() != 4 {
		t.Errorf("failed = %d, want 4", closed.failed())
	}
	open := ledger{offered: 10, decided: 6, shed: 2, abandoned: 1}
	if err := open.check(); err == nil {
		t.Error("ledger missing one report accepted")
	}
}

func key(n byte) flow.Key {
	return flow.Key{Src: netip.AddrFrom4([4]byte{10, 0, 0, n}), Dst: netip.AddrFrom4([4]byte{10, 0, 1, 1}), SrcPort: 1000, DstPort: 80, Proto: 6}
}

func TestCheckSeqRejectsDoctoredLog(t *testing.T) {
	good := []core.Decision{{Key: key(1), Seq: 0}, {Key: key(2), Seq: 0}, {Key: key(1), Seq: 1}, {Key: key(1), Seq: 3}}
	if err := checkSeq(good); err != nil {
		t.Errorf("good log rejected: %v", err)
	}
	for name, log := range map[string][]core.Decision{
		"repeat":  {{Key: key(1), Seq: 0}, {Key: key(1), Seq: 0}},
		"rewound": {{Key: key(1), Seq: 2}, {Key: key(2), Seq: 0}, {Key: key(1), Seq: 1}},
	} {
		if err := checkSeq(log); err == nil {
			t.Errorf("%s: doctored log accepted", name)
		}
	}
}

// sign votes attack when its feature is positive.
type sign struct{ feature int }

func (sign) Name() string                 { return "sign" }
func (sign) Fit([][]float64, []int) error { return nil }
func (s sign) Predict(x []float64) int {
	if x[s.feature] > 0 {
		return 1
	}
	return 0
}

func TestCheckRescoreRejectsDoctoredVotes(t *testing.T) {
	models := []ml.Classifier{sign{0}, sign{1}}
	scaler := &ml.StandardScaler{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	stored := map[flow.Key]store.FlowRecord{
		key(1): {Key: key(1), Features: []float64{1, -1}, Updates: 2},
		key(2): {Key: key(2), Features: []float64{-1, -1}, Updates: 1},
	}
	lookup := func(k flow.Key) (store.FlowRecord, bool) { r, ok := stored[k]; return r, ok }
	good := []core.Decision{
		{Key: key(1), Seq: 0, Votes: []int{0, 0}}, // superseded: only the final decision is re-scored
		{Key: key(2), Seq: 0, Votes: []int{0, 0}},
		{Key: key(1), Seq: 1, Votes: []int{1, 0}},
		{Key: key(3), Seq: 0, Votes: []int{1, 1}}, // evicted: nothing stored to re-score
	}
	if n, err := checkRescore(good, lookup, models, scaler); err != nil || n != 2 {
		t.Errorf("good log: checked %d, err %v; want 2, nil", n, err)
	}
	doctored := append([]core.Decision(nil), good...)
	doctored[2].Votes = []int{1, 1}
	if _, err := checkRescore(doctored, lookup, models, scaler); err == nil {
		t.Error("doctored votes accepted")
	}
	stale := good[:2] // key(1)'s final decision is for update 1, the store holds update 2
	if _, err := checkRescore(stale, lookup, models, scaler); err == nil {
		t.Error("decision for a superseded snapshot accepted as final")
	}
}

func TestStreamIndexesEveryReport(t *testing.T) {
	// Seven flows; every fifth report is an attack.
	var pool []*telemetry.Report
	for i := 0; i < 40; i++ {
		truth := telemetry.Truth{AttackType: "benign"}
		if i%5 == 0 {
			truth = telemetry.Truth{Label: true, AttackType: "synflood"}
		}
		pool = append(pool, &telemetry.Report{
			Src: netip.AddrFrom4([4]byte{192, 168, 0, byte(i % 7)}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
			SrcPort: 1234, DstPort: 80, Proto: 6, Length: 60, Truth: truth,
		})
	}
	for _, tc := range []struct {
		name  string
		ord   order
		churn bool
	}{{"mix", mixCycled, false}, {"mix-churn", mixCycled, true}, {"pool-churn", poolOrder, true}} {
		s, err := buildStream(pool, 500, tc.ord, tc.churn, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seen := map[packedKey]int{}
		for i := 0; i < s.len(); i++ {
			r, err := s.report(i)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if r.Truth.Label != (r.Truth.AttackType == "synflood") {
				t.Fatalf("%s: report %d carries truth %+v", tc.name, i, r.Truth)
			}
			k := pack(flow.FromINT(r, 0).Key)
			if k != s.pk[i] {
				t.Fatalf("%s: report %d decodes to flow %x, indexed as %x", tc.name, i, k, s.pk[i])
			}
			if got := s.reportOf(k, seen[k]); got != i {
				t.Fatalf("%s: (flow, seq %d) resolves to report %d, want %d", tc.name, seen[k], got, i)
			}
			seen[k]++
		}
		if err := s.close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.churn && len(seen) <= 7 {
			t.Errorf("%s: churn kept %d flows, want new flows every pass", tc.name, len(seen))
		}
		if !tc.churn && len(seen) != 7 {
			t.Errorf("%s: %d flows, want the pool's 7", tc.name, len(seen))
		}
	}
}

func TestMetricNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest: %v", err)
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		listed []struct{ Name string }
		names  []string
	}{{manifest.EndToEnd, endToEndMetrics}, {manifest.PerLayer, perLayerMetrics}} {
		got := map[string]metric{}
		for _, m := range tc.listed {
			got[m.Name] = metric{}
		}
		if err := sameNames(got, tc.names); err != nil {
			t.Errorf("BENCHMARK.json and the benchmark disagree: %v", err)
		}
	}
}

func TestCheckRestoreRejectsDrift(t *testing.T) {
	rec := store.FlowRecord{Key: key(1), Features: []float64{1, 2}, Updates: 3, Version: 3}
	pre := pipelineState{flows: 2, predictions: 5, sample: []store.FlowRecord{rec}}
	summary := &core.RestoreSummary{StoreFlows: 2, Predictions: 5}
	restored := map[flow.Key]store.FlowRecord{key(1): rec}
	lookup := func(k flow.Key) (store.FlowRecord, bool) { r, ok := restored[k]; return r, ok }
	if err := checkRestore(pre, summary, lookup); err != nil {
		t.Errorf("faithful restore rejected: %v", err)
	}
	if err := checkRestore(pre, nil, lookup); err == nil {
		t.Error("restart without a restore accepted")
	}
	if err := checkRestore(pre, &core.RestoreSummary{StoreFlows: 2, Predictions: 4}, lookup); err == nil {
		t.Error("lost prediction accepted")
	}
	drifted := rec
	drifted.Features = []float64{1, 2.5}
	restored[key(1)] = drifted
	if err := checkRestore(pre, summary, lookup); err == nil {
		t.Error("changed flow record accepted")
	}
	delete(restored, key(1))
	if err := checkRestore(pre, summary, lookup); err == nil {
		t.Error("missing flow record accepted")
	}
}
