package core

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/obs"
	"github.com/amlight/intddos/internal/telemetry"
)

func TestLiveStopTwice(t *testing.T) {
	l, err := NewLive(liveConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	l.Ingest(liveObs(1, 40, true, "synscan"))
	l.Stop()
	l.Stop() // second call must not panic on a closed quit channel
}

func TestLiveConcurrentStop(t *testing.T) {
	l, err := NewLive(liveConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.Stop() }()
	}
	wg.Wait()
}

// TestLiveConcurrentReportsAndDecisions hammers HandleReport, Ingest,
// and Decisions from many goroutines at once; run under -race this is
// the pipeline's concurrency contract test.
func TestLiveConcurrentReportsAndDecisions(t *testing.T) {
	l, err := NewLive(liveConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()

	const writers, readers, per = 4, 2, 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = l.Decisions()
					_ = l.MetricsSnapshot()
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					l.Ingest(liveObs(uint16(2000+g), 1000, false, "benign"))
				} else {
					rep := &telemetry.Report{
						Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
						SrcPort: uint16(3000 + g), DstPort: 80, Proto: netsim.TCP, Length: 40,
						Hops:  []telemetry.HopMetadata{{QueueDepth: 1, IngressTS: 10, EgressTS: 20}},
						Truth: telemetry.Truth{Label: true, AttackType: "synscan"},
					}
					l.HandleReport(rep)
				}
			}
		}(g)
	}
	// Wait for the writers, then let readers overlap the drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	want := writers * per
	if !waitFor(t, 10*time.Second, func() bool { return len(l.Decisions()) >= want }) {
		close(stop)
		<-done
		t.Fatalf("decisions = %d, want >= %d", len(l.Decisions()), want)
	}
	close(stop)
	<-done
}

func TestLiveWindowEviction(t *testing.T) {
	cfg := liveConfig(attackDetector())
	cfg.FlowIdleTimeout = 50 * time.Millisecond
	cfg.SweepInterval = 10 * time.Millisecond
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()

	for i := 0; i < 8; i++ {
		l.Ingest(liveObs(uint16(100+i), 40, true, "synflood"))
	}
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 8 }) {
		t.Fatalf("decisions = %d, want 8", len(l.Decisions()))
	}
	if l.votes.count() == 0 {
		t.Fatal("no vote windows created")
	}
	// Idle past the TTL: windows, table state, and DB records go.
	if !waitFor(t, 3*time.Second, func() bool {
		return l.votes.count() == 0 && l.tables.Len() == 0 && l.DB.FlowCount() == 0
	}) {
		t.Fatalf("not evicted: windows=%d table=%d dbflows=%d",
			l.votes.count(), l.tables.Len(), l.DB.FlowCount())
	}
	if l.Evictions.Load() == 0 {
		t.Error("eviction atomic not incremented")
	}
	snap := l.MetricsSnapshot()
	if snap.Counters["intddos_evictions_total"] == 0 {
		t.Error("intddos_evictions_total not incremented")
	}
}

func TestLiveMetricsMirrorPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := liveConfig(attackDetector())
	cfg.Registry = reg
	cfg.TraceSampleEvery = 1 // trace everything
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Obs() != reg {
		t.Fatal("Obs() does not return the provided registry")
	}
	l.Start()
	defer l.Stop()

	for i := 0; i < 6; i++ {
		l.Ingest(liveObs(9, 40, true, "synflood"))
	}
	if !waitFor(t, 3*time.Second, func() bool { return len(l.Decisions()) == 6 }) {
		t.Fatalf("decisions = %d, want 6", len(l.Decisions()))
	}

	s := l.MetricsSnapshot()
	if got := s.Counters["intddos_snapshots_total"]; got != l.Snapshots.Load() {
		t.Errorf("snapshots counter = %d, atomic = %d", got, l.Snapshots.Load())
	}
	if got := s.Counters["intddos_predictions_total"]; got != 6 {
		t.Errorf("predictions counter = %d", got)
	}
	if got := s.Counters[`intddos_decisions_total{attack_type="synflood"}`]; got != 6 {
		t.Errorf("per-type decisions = %d (counters: %v)", got, s.Counters)
	}
	if s.Counters["intddos_polls_total"] == 0 {
		t.Error("no polls counted")
	}
	if h, ok := s.Histogram("intddos_predict_latency_seconds"); !ok || h.Count != 6 {
		t.Errorf("predict latency histogram count = %d", h.Count)
	}
	for _, stage := range []string{"ingest", "journal_wait", "queue_wait", "scale_predict", "vote"} {
		h, ok := s.Histogram(`intddos_stage_seconds{stage="` + stage + `"}`)
		if !ok || h.Count == 0 {
			t.Errorf("stage %q histogram empty", stage)
		}
	}
	if h, ok := s.Histogram("intddos_store_upsert_seconds"); !ok || h.Count == 0 {
		t.Error("store upsert histogram empty")
	}
	if _, ok := s.Gauges["intddos_queue_depth"]; !ok {
		t.Error("queue depth gauge missing")
	}
	if got := s.Gauges["intddos_queue_capacity"]; got != float64(l.cfg.QueueCap) {
		t.Errorf("queue capacity gauge = %v", got)
	}

	traces := reg.Tracer("intddos_pipeline", 0, 0).Recent()
	if len(traces) == 0 {
		t.Fatal("no traces sampled at 1-in-1")
	}
	tr := traces[len(traces)-1]
	if len(tr.Stages) != 4 {
		t.Errorf("trace stages = %+v", tr.Stages)
	}
}

func TestLiveMisclassCounter(t *testing.T) {
	// attackDetector flags small packets; a large benign packet labeled
	// as attack ground truth will be misclassified.
	l, err := NewLive(liveConfig(attackDetector()))
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Stop()
	l.Ingest(liveObs(5, 1500, true, "slowloris")) // big packet → predicted benign, truth attack
	if !waitFor(t, 2*time.Second, func() bool { return len(l.Decisions()) == 1 }) {
		t.Fatal("no decision")
	}
	s := l.MetricsSnapshot()
	if got := s.Counters[`intddos_misclassified_total{attack_type="slowloris"}`]; got != 1 {
		t.Errorf("misclassified counter = %d (counters %v)", got, s.Counters)
	}
}
