package experiments

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// The chaos comparison's headline: the identical fault plan breaks stock GM
// and leaves FTGM exactly-once in-order.
func TestChaosComparison(t *testing.T) {
	cfg := chaos.DefaultCampaignConfig()
	cfg.Trials = 1
	cfg.Trial.SendEvery = 4 * sim.Millisecond
	results, err := ChaosComparison(20030623, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	byLabel := map[string]chaos.CampaignResult{}
	for _, r := range results {
		byLabel[r.Label] = r.Campaign
	}
	if byLabel["GM"].AllExactlyOnce {
		t.Error("stock GM survived the chaos plan unscathed")
	}
	if !byLabel["FTGM"].AllExactlyOnce {
		t.Errorf("FTGM audit dirty: %v", byLabel["FTGM"].Total)
	}
	out := RenderChaos(results)
	for _, want := range []string{"GM", "FTGM", "BROKEN", "exactly-once in-order"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
