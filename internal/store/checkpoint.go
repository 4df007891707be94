package store

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/amlight/intddos/internal/flow"
)

// JournalEntry is one exported journal row: the dense per-shard
// sequence number, the global ingest stamp shared across shards, and
// the record snapshot taken at write time. It is the unit the
// checkpoint subsystem persists so a restored store resumes polling
// exactly where the crashed process left off. GSeq is zero in exports
// decoded from version-1 snapshots (the format predates the stamp);
// ImportShard synthesizes fresh stamps for those, preserving
// per-shard order.
type JournalEntry struct {
	Seq  uint64
	GSeq uint64
	Rec  FlowRecord
}

// ShardExport is one shard's complete durable state: live flow
// records, the unconsumed journal tail, the shard's sequence counter,
// and — since snapshot version 2 — the shard's prediction log in Seq
// order. Everything is deep-copied — mutating an export never touches
// the store.
type ShardExport struct {
	Flows   []FlowRecord
	Journal []JournalEntry
	Seq     uint64
	Preds   []PredictionRecord

	// slab is the shared backing array behind Flows' Features slices.
	// It is retained only so ExportShardInto can recycle it when the
	// export it came from is dead; nothing reads it.
	slab []float64
}

// ShardDeltaExport is one shard's state difference against the
// previous export: records upserted since then, keys deleted since
// then, the complete current journal tail (the tail replaces the
// restored one — entries polled and trimmed since the parent must not
// reappear), the shard's sequence counter, and the predictions logged
// since then. Like ShardExport, everything is deep-copied.
type ShardDeltaExport struct {
	Flows   []FlowRecord
	Removed []flow.Key
	Journal []JournalEntry
	Seq     uint64
	Preds   []PredictionRecord
}

// cloneRecord deep-copies a flow record (Features is the only
// reference field).
func cloneRecord(rec FlowRecord) FlowRecord {
	snap := rec
	snap.Features = append([]float64(nil), rec.Features...)
	return snap
}

// clonePrediction deep-copies a prediction record (Votes is the only
// reference field).
func clonePrediction(p PredictionRecord) PredictionRecord {
	snap := p
	snap.Votes = append([]int(nil), p.Votes...)
	return snap
}

// raiseCounter lifts an atomic sequence counter to at least v, so
// stamps taken after a restore never collide with restored ones. The
// restore path is single-threaded, but the CAS keeps this safe to
// call at any time.
func raiseCounter(ctr *atomic.Uint64, v uint64) {
	for {
		cur := ctr.Load()
		if cur >= v || ctr.CompareAndSwap(cur, v) {
			return
		}
	}
}

// setDeltaTracking turns the DB's dirty/removed bookkeeping on or off
// and clears any stale marks.
func (db *DB) setDeltaTracking(on bool) {
	db.mu.Lock()
	db.track = on
	db.dirty = make(map[flow.Key]struct{})
	db.removed = make(map[flow.Key]struct{})
	db.mu.Unlock()
	db.pmu.Lock()
	db.predMark = 0
	db.pmu.Unlock()
}

// exportInto deep-copies the DB's durable state, reusing pre's
// backing arrays where their capacity suffices (see
// ShardedDB.ExportShardInto). With delta tracking on, a full export
// resets the dirty/removed marks and the prediction mark — it is the
// new base an incremental export diffs against.
func (db *DB) exportInto(pre ShardExport) ShardExport {
	var ex ShardExport
	db.mu.Lock()
	ex.Flows = pre.Flows[:0]
	if cap(ex.Flows) < len(db.flows) {
		ex.Flows = make([]FlowRecord, 0, len(db.flows))
	}
	// One slab for every record's features instead of a per-record
	// allocation — at a million flows the difference is the capture
	// barrier's hold time. featWidth is maintained on every mutation,
	// so sizing the slab costs no pre-pass over the map (that pass
	// also ran inside the barrier). Each record's slice is capped, so
	// records stay independent even if the slab ever regrew.
	slab := pre.slab[:0]
	if cap(slab) < db.featWidth {
		slab = make([]float64, 0, db.featWidth)
	}
	for _, rec := range db.flows {
		snap := *rec
		start := len(slab)
		slab = append(slab, rec.Features...)
		snap.Features = slab[start:len(slab):len(slab)]
		ex.Flows = append(ex.Flows, snap)
	}
	ex.slab = slab
	if db.track {
		db.dirty = make(map[flow.Key]struct{})
		db.removed = make(map[flow.Key]struct{})
	}
	db.mu.Unlock()
	db.jmu.Lock()
	ex.Journal = pre.Journal[:0]
	if cap(ex.Journal) < len(db.journal) {
		ex.Journal = make([]JournalEntry, 0, len(db.journal))
	}
	for _, e := range db.journal {
		ex.Journal = append(ex.Journal, JournalEntry{Seq: e.seq, GSeq: e.gseq, Rec: cloneRecord(e.rec)})
	}
	ex.Seq = db.seq
	db.jmu.Unlock()
	db.pmu.Lock()
	ex.Preds = pre.Preds[:0]
	if cap(ex.Preds) < len(db.preds) {
		ex.Preds = make([]PredictionRecord, 0, len(db.preds))
	}
	for _, p := range db.preds {
		ex.Preds = append(ex.Preds, clonePrediction(p))
	}
	if db.track && len(db.preds) > 0 {
		db.predMark = db.preds[len(db.preds)-1].Seq
	}
	db.pmu.Unlock()
	return ex
}

// exportDelta deep-copies the DB's changes since the previous export
// and resets the marks. The journal tail is always exported whole: it
// is already the sliding window the pollers haven't consumed, and
// replacing it on apply is what keeps trimmed entries from
// reappearing.
func (db *DB) exportDelta() ShardDeltaExport {
	var d ShardDeltaExport
	db.mu.Lock()
	if len(db.dirty) > 0 {
		d.Flows = make([]FlowRecord, 0, len(db.dirty))
		for k := range db.dirty {
			if rec, ok := db.flows[k]; ok {
				d.Flows = append(d.Flows, cloneRecord(*rec))
			}
		}
	}
	if len(db.removed) > 0 {
		d.Removed = make([]flow.Key, 0, len(db.removed))
		for k := range db.removed {
			d.Removed = append(d.Removed, k)
		}
	}
	db.dirty = make(map[flow.Key]struct{})
	db.removed = make(map[flow.Key]struct{})
	db.mu.Unlock()
	db.jmu.Lock()
	d.Journal = make([]JournalEntry, 0, len(db.journal))
	for _, e := range db.journal {
		d.Journal = append(d.Journal, JournalEntry{Seq: e.seq, GSeq: e.gseq, Rec: cloneRecord(e.rec)})
	}
	d.Seq = db.seq
	db.jmu.Unlock()
	db.pmu.Lock()
	// The log is Seq-sorted (stamps are taken under pmu), so the new
	// tail is the run after the mark.
	start := sort.Search(len(db.preds), func(i int) bool { return db.preds[i].Seq > db.predMark })
	if start < len(db.preds) {
		d.Preds = make([]PredictionRecord, 0, len(db.preds)-start)
		for _, p := range db.preds[start:] {
			d.Preds = append(d.Preds, clonePrediction(p))
		}
	}
	if len(db.preds) > 0 {
		db.predMark = db.preds[len(db.preds)-1].Seq
	}
	db.pmu.Unlock()
	return d
}

// applyDelta replays a delta export on top of the DB's current state.
// The restore path applies deltas base-first, so after the last one
// the DB matches the crashed process's state at its final capture.
func (db *DB) applyDelta(d ShardDeltaExport) {
	db.mu.Lock()
	for _, k := range d.Removed {
		if old, ok := db.flows[k]; ok {
			db.featWidth -= len(old.Features)
		}
		delete(db.flows, k)
	}
	for _, rec := range d.Flows {
		snap := cloneRecord(rec)
		if old, ok := db.flows[rec.Key]; ok {
			db.featWidth -= len(old.Features)
		}
		db.featWidth += len(snap.Features)
		db.flows[rec.Key] = &snap
	}
	if db.track {
		db.dirty = make(map[flow.Key]struct{})
		db.removed = make(map[flow.Key]struct{})
	}
	db.mu.Unlock()
	db.jmu.Lock()
	db.journal = make([]journalEntry, 0, len(d.Journal))
	for _, e := range d.Journal {
		raiseCounter(db.gseqCtr, e.GSeq)
		db.journal = append(db.journal, journalEntry{seq: e.Seq, gseq: e.GSeq, rec: cloneRecord(e.Rec)})
	}
	db.seq = d.Seq
	db.jmu.Unlock()
	db.pmu.Lock()
	for _, p := range d.Preds {
		db.preds = append(db.preds, clonePrediction(p))
		raiseCounter(db.predCtr, p.Seq)
	}
	if n := len(db.preds); db.track && n > 0 {
		db.predMark = db.preds[n-1].Seq
	}
	db.pmu.Unlock()
}

// importState replaces the DB's durable state with an export. Journal
// entries without a global stamp (version-1 snapshots) get fresh ones
// in journal order; the shared counters are raised past every
// restored stamp so post-restore writes continue the sequences.
func (db *DB) importState(ex ShardExport) {
	db.mu.Lock()
	db.flows = make(map[flow.Key]*FlowRecord, len(ex.Flows))
	db.featWidth = 0
	for _, rec := range ex.Flows {
		snap := cloneRecord(rec)
		db.featWidth += len(snap.Features)
		db.flows[rec.Key] = &snap
	}
	if db.track {
		db.dirty = make(map[flow.Key]struct{})
		db.removed = make(map[flow.Key]struct{})
	}
	db.mu.Unlock()
	db.jmu.Lock()
	db.journal = make([]journalEntry, 0, len(ex.Journal))
	for _, e := range ex.Journal {
		g := e.GSeq
		if g == 0 {
			g = db.gseqCtr.Add(1)
		} else {
			raiseCounter(db.gseqCtr, g)
		}
		db.journal = append(db.journal, journalEntry{seq: e.Seq, gseq: g, rec: cloneRecord(e.Rec)})
	}
	db.seq = ex.Seq
	db.jmu.Unlock()
	db.pmu.Lock()
	db.preds = make([]PredictionRecord, 0, len(ex.Preds))
	for _, p := range ex.Preds {
		db.preds = append(db.preds, clonePrediction(p))
		raiseCounter(db.predCtr, p.Seq)
	}
	if n := len(db.preds); db.track && n > 0 {
		db.predMark = db.preds[n-1].Seq
	}
	db.pmu.Unlock()
}

// ExportShard deep-copies one shard's durable state. Out-of-range
// shards yield a zero export. Fault-injection wrappers deliberately
// do not expose the export surface (a checkpoint must read the real
// state, not a fault-shaped view), so consumers keep the concrete
// store beneath any wrapping.
func (s *ShardedDB) ExportShard(shard int) ShardExport {
	return s.ExportShardInto(shard, ShardExport{})
}

// ExportShardInto is ExportShard reusing pre's backing arrays where
// their capacity suffices. The checkpoint writer hands the previous
// capture's export — already encoded to disk, no longer read — back
// in, so the copy under the barrier lands in warm memory instead of
// freshly allocated (and kernel-zeroed) pages. Callers must ensure
// nothing else still reads pre.
func (s *ShardedDB) ExportShardInto(shard int, pre ShardExport) ShardExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardExport{}
	}
	return s.shards[shard].exportInto(pre)
}

// ImportShard loads an export into one shard, replacing its state. It
// fails when the shard index is out of range — the checkpointed shard
// count must match the store's.
func (s *ShardedDB) ImportShard(shard int, ex ShardExport) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("store: import shard %d out of range (have %d)", shard, len(s.shards))
	}
	s.shards[shard].importState(ex)
	return nil
}

// SetDeltaTracking turns dirty/removed tracking on or off on every
// shard and clears any stale marks. Enable it before the state an
// incremental export diffs against is captured. Every export — full
// or delta — resets the marks, so consecutive delta exports chain:
// each one is the difference against whichever export came before it.
func (s *ShardedDB) SetDeltaTracking(on bool) {
	for _, sh := range s.shards {
		sh.setDeltaTracking(on)
	}
}

// ExportShardDelta deep-copies one shard's changes since the previous
// export and resets its marks. Out-of-range shards yield a zero
// export.
func (s *ShardedDB) ExportShardDelta(shard int) ShardDeltaExport {
	if shard < 0 || shard >= len(s.shards) {
		return ShardDeltaExport{}
	}
	return s.shards[shard].exportDelta()
}

// ApplyShardDelta replays a delta export on top of one shard:
// removals first, then upserts; the journal tail and sequence counter
// are replaced, predictions appended.
func (s *ShardedDB) ApplyShardDelta(shard int, d ShardDeltaExport) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("store: apply delta shard %d out of range (have %d)", shard, len(s.shards))
	}
	s.shards[shard].applyDelta(d)
	return nil
}

// ImportPredictions replaces every shard's prediction log with a
// restored global-order history (version-1 snapshot layout, one
// shared log): records are routed to their key's shard, and records
// without a Seq stamp are stamped in input order — input order is the
// global order, so each shard's log comes out Seq-sorted and the
// merge-on-read reconstructs exactly the restored history.
func (s *ShardedDB) ImportPredictions(preds []PredictionRecord) {
	for _, sh := range s.shards {
		sh.pmu.Lock()
		sh.preds = nil
		sh.pmu.Unlock()
	}
	for _, p := range preds {
		sh := s.shardFor(p.Key)
		sh.pmu.Lock()
		if p.Seq == 0 {
			p.Seq = s.predCtr.Add(1)
		} else {
			raiseCounter(s.predCtr, p.Seq)
		}
		sh.preds = append(sh.preds, clonePrediction(p))
		sh.pmu.Unlock()
	}
}
