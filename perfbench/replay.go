package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/ml"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
	"github.com/amlight/intddos/internal/telemetry"
)

// Live defaults the replay reproduces: the poll period and batch, and
// the prediction micro-batch.
const (
	pollInterval = 5 * time.Millisecond
	pollBatch    = 256
	predictBatch = 1
	quorum       = 2
	// sweepEvery is the eviction pass period: the live default,
	// SweepInterval = FlowIdleTimeout, at flood-churn's timeout.
	sweepEvery = 2 * time.Second
)

// Span names of the replay. The bench.* spans are the replay's own
// loop; every other name is one layer call, named layer.call.
const (
	spIngest = iota // bench.ingest: one report through ingest
	spDecode
	spObserve
	spUpsert
	spTick // bench.poll_tick: one poll period's work
	spPoll
	spTrim
	spScore // bench.score: one micro-batch through scoring
	spScale
	spVote
	spAppend
	spSweep
	spDelete
	spModel // first per-model span; one per ensemble member
)

var baseSpanNames = []string{
	"bench.ingest", "telemetry.decode", "flow.observe", "store.upsert",
	"bench.poll_tick", "store.poll", "store.trim",
	"bench.score", "ml.scale", "ml.vote", "store.append_prediction",
	"flow.sweep", "store.delete_flow",
}

// replayResult is the traced single-threaded replay of one stream.
type replayResult struct {
	tr       *tracer
	times    []layerTime
	reports  int
	inserted int // observations that created a flow
	resident int // flows in the table at the end
	polled   int // records returned by polls
	scored   int // rows scored
}

// replay runs the first n reports of s through each layer's public
// functions in pipeline order on one goroutine, recording a span per
// call: decode, flow observe, store upsert; every poll period a poll
// and trim at the live poll batch, then scale, each model's
// PredictBatch at the live micro-batch, quorum, and prediction append;
// and every sweepEvery a sweep, whose evictions delete the store
// record (with no idle timeout the sweep evicts nothing, as a live
// pipeline without eviction never sweeps). Report i is observed at its
// scheduled send time, so the table's clock runs as in the live run at
// that rate.
func replay(s *stream, n int, rate float64, idle time.Duration, models []ml.Classifier, scaler *ml.StandardScaler) (*replayResult, error) {
	names := append([]string(nil), baseSpanNames...)
	for _, m := range models {
		names = append(names, "ml.predict."+strings.ToLower(m.Name()))
	}
	// About a dozen spans per report.
	tr := newTracer(names, n*(12+len(models)))
	res := &replayResult{tr: tr, reports: n}
	table := flow.NewShardedTable(1)
	db := store.New()
	features := flow.INTFeatures()

	sweepSpan := int32(-1)
	table.SetIdleTimeout(netsim.Time(idle))
	table.SetOnEvict(func(k flow.Key) {
		id := tr.begin(spDelete, sweepSpan, -1)
		db.DeleteFlow(k)
		tr.end(id)
	})

	var cursor uint64
	var rows, scaled [][]float64
	ones := make([]int, predictBatch)
	votes := make([][]int, predictBatch)
	tick := func(final bool) {
		t := tr.begin(spTick, -1, -1)
		defer tr.end(t)
		for {
			id := tr.begin(spPoll, t, -1)
			recs, cur := db.PollShard(0, cursor, pollBatch)
			tr.end(id)
			id = tr.begin(spTrim, t, -1)
			db.TrimShard(0, cur)
			tr.end(id)
			cursor = cur
			res.polled += len(recs)
			for lo := 0; lo < len(recs); lo += predictBatch {
				batch := recs[lo:min(lo+predictBatch, len(recs))]
				score(tr, t, s, batch, models, scaler, db, &rows, &scaled, ones, votes)
				res.scored += len(batch)
			}
			if !final || len(recs) == 0 {
				return
			}
		}
	}

	var nextTick, nextSweep netsim.Time = netsim.Time(pollInterval), netsim.Time(sweepEvery)
	for i := 0; i < n; i++ {
		at := netsim.Time(dueAt(0, rate, i))
		for at >= nextTick {
			tick(false)
			nextTick += netsim.Time(pollInterval)
		}
		if at >= nextSweep {
			sweepSpan = tr.begin(spSweep, -1, -1)
			table.Sweep(at)
			tr.end(sweepSpan)
			nextSweep += netsim.Time(sweepEvery)
		}

		root := tr.begin(spIngest, -1, int32(i))
		id := tr.begin(spDecode, root, int32(i))
		r, err := telemetry.DecodeReport(s.datagram(i))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay decode %d: %w", i, err)
		}
		r.Truth = telemetry.Truth{Label: s.label[i], AttackType: s.attackTypes[s.attack[i]]}

		id = tr.begin(spObserve, root, int32(i))
		pi := flow.FromINT(r, at)
		var (
			feats   []float64
			reg     netsim.Time
			updates int
		)
		created := table.ObserveFunc(pi, func(st *flow.State) {
			feats = st.Features(nil, features)
			reg, updates = st.RegisteredAt, st.Updates
		})
		tr.end(id)
		if created {
			res.inserted++
		}

		id = tr.begin(spUpsert, root, int32(i))
		db.UpsertFlow(pi.Key, feats, reg, at, updates, pi.Label, pi.AttackType)
		tr.end(id)
		tr.end(root)
	}
	tick(true)
	res.resident = table.Len()
	res.times = selfTimes(tr.spans, len(names))
	return res, nil
}

// score runs one micro-batch of polled records through the scoring
// layers, under a bench.score span tied to the batch's first report.
func score(tr *tracer, parent int32, s *stream, batch []store.FlowRecord, models []ml.Classifier,
	scaler *ml.StandardScaler, db *store.DB, rows, scaled *[][]float64, ones []int, votes [][]int) {
	report := int32(s.reportOf(pack(batch[0].Key), batch[0].Updates-1))
	sc := tr.begin(spScore, parent, report)
	defer tr.end(sc)

	*rows = (*rows)[:0]
	for _, rec := range batch {
		*rows = append(*rows, rec.Features)
	}
	id := tr.begin(spScale, sc, report)
	*scaled = scaler.TransformBatch(*scaled, *rows)
	tr.end(id)

	for i := range batch {
		ones[i] = 0
		votes[i] = make([]int, len(models))
	}
	for mi, m := range models {
		id := tr.begin(int32(spModel+mi), sc, report)
		labels := ml.PredictBatch(m, *scaled)
		tr.end(id)
		for i, lab := range labels {
			votes[i][mi] = lab
			ones[i] += lab
		}
	}

	id = tr.begin(spVote, sc, report)
	labels := ml.QuorumLabels(ones[:len(batch)], quorum)
	tr.end(id)

	for i, rec := range batch {
		id := tr.begin(spAppend, sc, report)
		db.AppendPrediction(store.PredictionRecord{
			Key: rec.Key, Label: labels[i], At: rec.UpdatedAt,
			Votes: votes[i], Truth: rec.Truth, AttackType: rec.AttackType,
		})
		tr.end(id)
	}
}

// decodeAllocs is the heap allocations per DecodeReport call over up
// to n of the stream's datagrams.
func decodeAllocs(s *stream, n int) float64 {
	n = min(n, s.len())
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := telemetry.DecodeReport(s.datagram(i)); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
