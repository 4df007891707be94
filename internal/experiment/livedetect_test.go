package experiment

import (
	"strings"
	"testing"

	"github.com/amlight/intddos/internal/traffic"
)

// liveAcc extracts per-type accuracy from a result.
func liveAcc(res *LiveResult) map[string]float64 {
	out := map[string]float64{}
	for _, r := range res.Rows {
		out[r.Type] = r.Accuracy
	}
	return out
}

func TestLiveVoteWindowAblation(t *testing.T) {
	base := LiveConfig{Scale: traffic.ScaleTiny, Seed: 42, PacketsPerType: 250}

	smoothed, err := RunTableVI(base)
	if err != nil {
		t.Fatal(err)
	}
	raw := base
	raw.VoteWindow = 1
	unsmoothed, err := RunTableVI(raw)
	if err != nil {
		t.Fatal(err)
	}
	sAcc, uAcc := liveAcc(smoothed), liveAcc(unsmoothed)
	// Both configurations must work; smoothing must not make any
	// attack type materially worse, and it exists to suppress
	// isolated flips (§IV-C4).
	for _, typ := range traffic.AttackTypes {
		if sAcc[typ]+0.05 < uAcc[typ] {
			t.Errorf("%s: smoothing hurt accuracy %v → %v", typ, uAcc[typ], sAcc[typ])
		}
		if uAcc[typ] < 0.5 {
			t.Errorf("%s unsmoothed accuracy = %v", typ, uAcc[typ])
		}
	}
}

func TestLiveSingleModelEnsemble(t *testing.T) {
	cfg := LiveConfig{
		Scale: traffic.ScaleTiny, Seed: 42, PacketsPerType: 200,
		Ensemble:    StageTwoModels()[1:2], // RF alone
		ModelQuorum: 1,
	}
	res, err := RunTableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ensemble) != 1 || res.Ensemble[0] != "RF" {
		t.Fatalf("ensemble = %v", res.Ensemble)
	}
	acc := liveAcc(res)
	for _, typ := range []string{traffic.SYNScan, traffic.SYNFlood} {
		if acc[typ] < 0.9 {
			t.Errorf("single-RF %s accuracy = %v", typ, acc[typ])
		}
	}
}

func TestRunMitigation(t *testing.T) {
	rows, err := RunMitigation(LiveConfig{
		Scale: traffic.ScaleTiny, Seed: 42, PacketsPerType: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 attack types", len(rows))
	}
	byType := map[string]MitigationResult{}
	for _, r := range rows {
		byType[r.AttackType] = r
	}
	// Single-source scans must be largely suppressed after source
	// escalation.
	for _, typ := range []string{traffic.SYNScan, traffic.UDPScan} {
		r := byType[typ]
		if r.Suppression < 0.5 {
			t.Errorf("%s suppression = %.2f, want ≥0.5 (single source)", typ, r.Suppression)
		}
		if r.Escalations == 0 {
			t.Errorf("%s never escalated to a source rule", typ)
		}
		if r.TimeToFirstRule <= 0 {
			t.Errorf("%s has no first-rule time", typ)
		}
	}
	// Spoofed floods defeat per-flow rules: suppression must be poor —
	// the known limitation that motivates upstream filtering.
	if r := byType[traffic.SYNFlood]; r.Suppression > 0.5 {
		t.Errorf("spoofed flood suppression = %.2f — should remain poor", r.Suppression)
	}
	// Accounting adds up.
	for _, r := range rows {
		if r.Delivered+r.DroppedByACL > r.TotalPackets {
			t.Errorf("%s: delivered %d + dropped %d > total %d",
				r.AttackType, r.Delivered, r.DroppedByACL, r.TotalPackets)
		}
	}
	if !strings.Contains(FormatMitigation(rows), "Suppression") {
		t.Error("rendering incomplete")
	}
}
