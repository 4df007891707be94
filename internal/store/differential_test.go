// Differential tests: drive a one-shard ShardedDB and a ShardedDB of
// another width with the same randomized, interleaved operation
// sequence and assert the two are observably identical — same visible flow state, same
// per-flow journal semantics, same prediction log. This is the
// contract that makes sharding a deployment substitution rather than
// a semantic change to the paper's mechanism.
package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
)

// diffHarness holds one store plus the polling state a CentralServer
// would keep for it — per-shard cursors for the striped poll surface
// and a global cursor for the merged journal order.
type diffHarness struct {
	db           Store
	cursors      []uint64
	gcursor      uint64
	polled       map[flow.Key][]FlowRecord // journal entries seen, per flow
	globalPolled []FlowRecord              // merged-order journal stream
}

func newDiffHarness(db Store) *diffHarness {
	return &diffHarness{
		db:      db,
		cursors: make([]uint64, db.Shards()),
		polled:  make(map[flow.Key][]FlowRecord),
	}
}

// pollAll drains every shard's journal into the per-flow history.
func (h *diffHarness) pollAll(batch int, trim bool) {
	for s := 0; s < h.db.Shards(); s++ {
		for {
			recs, cur := h.db.PollShard(s, h.cursors[s], batch)
			if len(recs) == 0 {
				if trim {
					// Entries consumed by earlier no-trim polls still
					// occupy the journal until trimmed to the cursor.
					h.db.TrimShard(s, h.cursors[s])
				}
				break
			}
			for _, r := range recs {
				h.polled[r.Key] = append(h.polled[r.Key], r)
			}
			h.cursors[s] = cur
			if trim {
				h.db.TrimShard(s, cur)
			}
		}
	}
}

// pollGlobalOnce advances the global cursor by one bounded poll,
// appending to the merged-order stream; trim optionally follows the
// cursor like the simulated CentralServer does.
func (h *diffHarness) pollGlobalOnce(batch int, trim bool) {
	recs, cur := h.db.PollGlobal(h.gcursor, batch)
	h.globalPolled = append(h.globalPolled, recs...)
	h.gcursor = cur
	if trim {
		h.db.TrimGlobal(cur)
	}
}

// applyOp runs one deterministic operation against a store.
func applyOp(rng *rand.Rand, h *diffHarness, keys []flow.Key, step int) {
	key := keys[rng.Intn(len(keys))]
	switch op := rng.Intn(10); {
	case op < 6: // upsert dominates, like the real ingest path
		feats := []float64{float64(step), float64(rng.Intn(100))}
		h.db.UpsertFlow(key, feats, netsim.Time(step), netsim.Time(step+1),
			step, step%3 == 0, "synflood")
	case op < 8: // poll a partial batch without trimming
		h.pollAll(1+rng.Intn(4), false)
	case op < 9: // poll and trim
		h.pollAll(1+rng.Intn(4), true)
	default:
		h.db.DeleteFlow(key)
	}
}

// applyGlobalOp runs one deterministic operation against a store
// driven the way the simulated mechanism drives it: global-order
// polls and a prediction log alongside the ingest writes.
func applyGlobalOp(rng *rand.Rand, h *diffHarness, keys []flow.Key, step int) {
	key := keys[rng.Intn(len(keys))]
	switch op := rng.Intn(10); {
	case op < 5:
		feats := []float64{float64(step), float64(rng.Intn(100))}
		h.db.UpsertFlow(key, feats, netsim.Time(step), netsim.Time(step+1),
			step, step%3 == 0, "synflood")
	case op < 7: // global poll without trim
		h.pollGlobalOnce(1+rng.Intn(4), false)
	case op < 8: // global poll and trim
		h.pollGlobalOnce(1+rng.Intn(4), true)
	case op < 9: // log a decision
		h.db.AppendPrediction(PredictionRecord{
			Key: key, Label: rng.Intn(2), At: netsim.Time(step),
			Latency: netsim.Time(rng.Intn(500)), Votes: []int{rng.Intn(2), rng.Intn(2)},
			Truth: step%3 == 0, AttackType: "synflood",
		})
	default:
		h.db.DeleteFlow(key)
	}
}

// TestDifferentialShardedVsLegacy replays identical operation
// sequences into a one-shard ShardedDB and ShardedDBs of several
// widths (width 1 against itself pins determinism).
func TestDifferentialShardedVsLegacy(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				keys := make([]flow.Key, 13)
				for i := range keys {
					keys[i] = testKey(i)
				}
				base := newDiffHarness(NewSharded(1))
				sharded := newDiffHarness(NewSharded(shards))

				// Two independent RNGs with the same seed: each harness
				// consumes randomness identically.
				rngA := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))
				for step := 0; step < 2000; step++ {
					applyOp(rngA, base, keys, step)
					applyOp(rngB, sharded, keys, step)
				}
				base.pollAll(64, true)
				sharded.pollAll(64, true)

				assertStoresEqual(t, base, sharded, keys)
			})
		}
	}
}

// TestDifferentialGlobalPollAndPredictions replays identical
// sequences of upserts, global-order polls, prediction appends, and
// deletes into a one-shard ShardedDB and ShardedDBs of several
// widths: the
// merged global journal stream and the merged prediction log must be
// identical element for element — cross-flow order included. This is
// the store-level contract behind Table VI's byte-identity at every
// shard count.
func TestDifferentialGlobalPollAndPredictions(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				keys := make([]flow.Key, 13)
				for i := range keys {
					keys[i] = testKey(i)
				}
				base := newDiffHarness(NewSharded(1))
				sharded := newDiffHarness(NewSharded(shards))
				rngA := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))
				for step := 0; step < 2000; step++ {
					applyGlobalOp(rngA, base, keys, step)
					applyGlobalOp(rngB, sharded, keys, step)
				}
				// Drain both global streams completely.
				for {
					before := len(base.globalPolled)
					base.pollGlobalOnce(64, true)
					sharded.pollGlobalOnce(64, true)
					if len(base.globalPolled) == before {
						break
					}
				}

				wantStream := projectKeyedJournal(base.globalPolled)
				gotStream := projectKeyedJournal(sharded.globalPolled)
				if !reflect.DeepEqual(wantStream, gotStream) {
					t.Errorf("global poll streams differ (%d vs %d records)", len(gotStream), len(wantStream))
				}
				if !reflect.DeepEqual(base.db.Predictions(), sharded.db.Predictions()) {
					t.Errorf("prediction logs differ (%d vs %d records)",
						sharded.db.PredictionCount(), base.db.PredictionCount())
				}
				if l, s := base.db.JournalLen(), sharded.db.JournalLen(); l != s {
					t.Errorf("JournalLen after global drain: base %d, sharded %d", l, s)
				}
			})
		}
	}
}

// assertStoresEqual compares every observable surface of two stores.
func assertStoresEqual(t *testing.T, want, got *diffHarness, keys []flow.Key) {
	t.Helper()
	if want.db.FlowCount() != got.db.FlowCount() {
		t.Errorf("FlowCount: base %d, sharded %d", want.db.FlowCount(), got.db.FlowCount())
	}
	if want.db.JournalLen() != got.db.JournalLen() {
		t.Errorf("JournalLen after drain: base %d, sharded %d",
			want.db.JournalLen(), got.db.JournalLen())
	}
	for _, key := range keys {
		wr, wok := want.db.Flow(key)
		gr, gok := got.db.Flow(key)
		if wok != gok {
			t.Errorf("%s: exists base=%v sharded=%v", key, wok, gok)
			continue
		}
		if wok {
			// Version numbers are per-shard bookkeeping; everything the
			// pipeline reads must match exactly.
			wr.Version, gr.Version = 0, 0
			if !reflect.DeepEqual(wr, gr) {
				t.Errorf("%s: record mismatch\nlegacy:  %+v\nsharded: %+v", key, wr, gr)
			}
		}
		// Journal semantics: the same per-flow update sequence, in the
		// same order, must have been observable through polling.
		wj, gj := projectJournal(want.polled[key]), projectJournal(got.polled[key])
		if !reflect.DeepEqual(wj, gj) {
			t.Errorf("%s: journal sequences differ\nlegacy:  %v\nsharded: %v", key, wj, gj)
		}
	}
}

// projectKeyedJournal renders a polled stream with flow identity kept
// — the projection for global-order comparisons, where cross-flow
// interleaving is exactly what is under test.
func projectKeyedJournal(recs []FlowRecord) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, fmt.Sprintf("k=%s u=%d t=%v feat=%v truth=%v",
			r.Key, r.Updates, r.UpdatedAt, r.Features, r.Truth))
	}
	return out
}

// projectJournal reduces polled records to the fields the prediction
// path consumes, dropping cross-flow ordering artifacts.
func projectJournal(recs []FlowRecord) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, fmt.Sprintf("u=%d t=%v feat=%v truth=%v", r.Updates, r.UpdatedAt, r.Features, r.Truth))
	}
	return out
}

// TestDifferentialConcurrent hammers both stores with concurrent
// writers and per-shard pollers under the race detector, then checks
// that per-flow journal order survived. Cross-flow order is
// unspecified under concurrency; per-flow order is the invariant the
// vote window needs.
func TestDifferentialConcurrent(t *testing.T) {
	for _, db := range []Store{NewSharded(1), NewSharded(8)} {
		db := db
		t.Run(fmt.Sprintf("shards=%d", db.Shards()), func(t *testing.T) {
			const writers, perWriter, flows = 8, 500, 16
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each writer owns two flows so per-flow updates are
					// strictly ordered at the source.
					for i := 0; i < perWriter; i++ {
						key := testKey(w*2 + i%2)
						db.UpsertFlow(key, []float64{float64(i)}, 0, netsim.Time(i), i, false, "")
					}
				}(w)
			}
			// Concurrent per-shard pollers drain while writes happen.
			history := make(chan FlowRecord, writers*perWriter)
			var pollWg sync.WaitGroup
			stop := make(chan struct{})
			for s := 0; s < db.Shards(); s++ {
				pollWg.Add(1)
				go func(s int) {
					defer pollWg.Done()
					cursor := uint64(0)
					for {
						recs, cur := db.PollShard(s, cursor, 32)
						for _, r := range recs {
							history <- r
						}
						if cur != cursor {
							cursor = cur
							db.TrimShard(s, cursor)
							continue
						}
						select {
						case <-stop:
							// One final drain after writers finished.
							recs, cur = db.PollShard(s, cursor, 1<<20)
							for _, r := range recs {
								history <- r
							}
							return
						default:
						}
					}
				}(s)
			}
			wg.Wait()
			close(stop)
			pollWg.Wait()
			close(history)

			perFlow := make(map[flow.Key][]int)
			for r := range history {
				perFlow[r.Key] = append(perFlow[r.Key], r.Updates)
			}
			if len(perFlow) != flows {
				t.Fatalf("saw %d flows, want %d", len(perFlow), flows)
			}
			for key, seq := range perFlow {
				for i := 1; i < len(seq); i++ {
					if seq[i] <= seq[i-1] {
						t.Fatalf("%s: journal order violated at %d: %v", key, i, seq)
					}
				}
			}
		})
	}
}
