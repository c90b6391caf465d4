package experiments

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// The network-fault comparison's headline: on a dual-switch fabric with a
// trunk killed, only the watchdog-equipped scheme reroutes and stays
// exactly-once; the others stall and lose the stranded streams.
func TestNetworkFaultComparison(t *testing.T) {
	cfg := chaos.CampaignConfig{
		Trials: 1,
		Trial: chaos.TrialConfig{
			Nodes:     4,
			Traffic:   sim.Second,
			SendEvery: 4 * sim.Millisecond,
			Events:    2,
			MaxSettle: 15 * sim.Second,
		},
	}
	results, err := NetworkFaultComparison(20030623, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	byLabel := map[string]SchemeResult{}
	for _, r := range results {
		byLabel[r.Label] = r
	}
	watch := byLabel["FTGM+netwatch"]
	if !watch.Campaign.AllExactlyOnce {
		t.Errorf("watchdog audit dirty: %v (dirty=%v)",
			watch.Campaign.Total, watch.Campaign.Total.Dirty)
	}
	if watch.Campaign.Counters.NetRemaps == 0 {
		t.Error("the watchdog never remapped")
	}
	for _, label := range []string{"GM", "FTGM"} {
		r := byLabel[label]
		if r.Campaign.AllExactlyOnce {
			t.Errorf("%s survived a dead trunk it cannot route around: %v", label, r.Campaign.Total)
		}
		if r.DeliveryRate() >= watch.DeliveryRate() {
			t.Errorf("%s delivery rate %.3f not below watchdog's %.3f",
				label, r.DeliveryRate(), watch.DeliveryRate())
		}
		if r.Campaign.Counters.NetRemaps != 0 {
			t.Errorf("%s remapped without a watchdog: %+v", label, r.Campaign.Counters)
		}
	}
	out := RenderNetFault(results)
	for _, want := range []string{"GM", "FTGM+netwatch", "STALLED", "exactly-once in-order", "suspicions="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
