package main

import (
	"fmt"
	"slices"

	"github.com/amlight/intddos/internal/core"
	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/store"
)

// ledger is the report accounting of one run.
type ledger struct {
	offered, decided, shed, abandoned, dropped int64
}

// failed is how many offered reports did not become decisions.
func (l ledger) failed() int64 { return l.offered - l.decided }

// check fails unless every offered report ended decided, shed,
// abandoned or dropped at ingest.
func (l ledger) check() error {
	if got := l.decided + l.shed + l.abandoned + l.dropped; got != l.offered {
		return fmt.Errorf("ledger open: offered %d != decided %d + shed %d + abandoned %d + ingest-dropped %d",
			l.offered, l.decided, l.shed, l.abandoned, l.dropped)
	}
	return nil
}

// checkSeq fails unless each flow's decisions carry strictly
// increasing Seq in decision-log order.
func checkSeq(decs []core.Decision) error {
	last := make(map[flow.Key]int, 1024)
	for i, d := range decs {
		if prev, ok := last[d.Key]; ok && d.Seq <= prev {
			return fmt.Errorf("decision %d: flow %v seq %d after seq %d", i, d.Key, d.Seq, prev)
		}
		last[d.Key] = d.Seq
	}
	return nil
}

// checkRescore re-scores every flow's final stored snapshot with a
// reference ensemble — scaler, then each model, one row at a time —
// and fails unless the votes equal those of the flow's final decision.
// Flows evicted from the store since their last decision have no
// snapshot left and are skipped; the count of flows checked is
// returned.
func checkRescore(decs []core.Decision, lookup func(flow.Key) (store.FlowRecord, bool), models []ml.Classifier, scaler *ml.StandardScaler) (int, error) {
	final := make(map[flow.Key]core.Decision, 1024)
	for _, d := range decs {
		final[d.Key] = d
	}
	checked := 0
	row := make([]float64, len(scaler.Mean))
	votes := make([]int, len(models))
	for key, d := range final {
		rec, ok := lookup(key)
		if !ok {
			continue
		}
		if rec.Updates-1 != d.Seq {
			return checked, fmt.Errorf("flow %v: stored snapshot is update %d, final decision seq %d", key, rec.Updates, d.Seq)
		}
		row = scaler.TransformRow(row, rec.Features)
		for i, m := range models {
			votes[i] = m.Predict(row)
		}
		if !slices.Equal(votes, d.Votes) {
			return checked, fmt.Errorf("flow %v: reference votes %v, final decision votes %v", key, votes, d.Votes)
		}
		checked++
	}
	return checked, nil
}

// pipelineState is the durable state compared across a restart.
type pipelineState struct {
	flows, predictions int
	sample             []store.FlowRecord
}

// checkRestore fails unless the restored counts equal the pre-stop
// ones and every sampled pre-stop flow record was restored unchanged.
func checkRestore(pre pipelineState, restored *core.RestoreSummary, lookup func(flow.Key) (store.FlowRecord, bool)) error {
	if restored == nil {
		return fmt.Errorf("restart restored nothing")
	}
	if restored.StoreFlows != pre.flows || restored.Predictions != pre.predictions {
		return fmt.Errorf("restored %d flows and %d predictions, pre-stop state had %d and %d",
			restored.StoreFlows, restored.Predictions, pre.flows, pre.predictions)
	}
	for _, want := range pre.sample {
		got, ok := lookup(want.Key)
		if !ok {
			return fmt.Errorf("flow %v missing after restore", want.Key)
		}
		if got.Updates != want.Updates || got.Version != want.Version || got.Truth != want.Truth ||
			got.RegisteredAt != want.RegisteredAt || got.UpdatedAt != want.UpdatedAt ||
			!slices.Equal(got.Features, want.Features) {
			return fmt.Errorf("flow %v restored as %+v, was %+v", want.Key, got, want)
		}
	}
	return nil
}
