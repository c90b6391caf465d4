package experiments

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// The control-plane comparison's headline: when the boot-time mapper dies
// for good, only the gossip plane genuinely recovers. Plain FTGM stalls,
// and the centralized watchdog — headquartered on the corpse — expels the
// live survivors one grace period later.
func TestControlPlaneComparison(t *testing.T) {
	cfg := chaos.CampaignConfig{
		Trials: 1,
		Trial: chaos.TrialConfig{
			Nodes:     4,
			Traffic:   sim.Second,
			SendEvery: 4 * sim.Millisecond,
			Events:    1,
			MaxSettle: 15 * sim.Second,
		},
	}
	results, err := ControlPlaneComparison(20030623, cfg)
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
	g := byLabel["FTGM+gossip"]
	if v := ControlPlaneVerdict(g); v != "exactly-once in-order" {
		t.Errorf("gossip verdict = %q: %v (dirty=%v)", v, g.Campaign.Total, g.Campaign.Total.Dirty)
	}
	if g.Campaign.Counters.GossipDeadDeclared == 0 {
		t.Error("gossip never declared the dead mapper dead")
	}
	if g.Campaign.Counters.GossipLiveExpelled != 0 || g.Campaign.Counters.GossipRouteGaps != 0 {
		t.Errorf("gossip convergence defects: %+v", g.Campaign.Counters)
	}
	c := byLabel["FTGM+central"]
	if v := ControlPlaneVerdict(c); v != "SELF-DESTRUCTED" {
		t.Errorf("central verdict = %q (want SELF-DESTRUCTED): %+v", v, c.Campaign.Counters)
	}
	if c.Campaign.Counters.NetUnreachable == 0 {
		t.Error("central watchdog expelled no one despite a dead mapper")
	}
	p := byLabel["FTGM"]
	if v := ControlPlaneVerdict(p); v != "STALLED" {
		t.Errorf("plain FTGM verdict = %q (want STALLED): %v", v, p.Campaign.Total)
	}
	if p.Campaign.Total.Lost == 0 {
		t.Errorf("no losses recorded on a stalled cluster: %v", p.Campaign.Total)
	}
	for _, r := range []SchemeResult{p, c} {
		if r.Campaign.Counters.GossipProbes != 0 {
			t.Errorf("%s ran gossip agents in a central-plane trial: %+v", r.Label, r.Campaign.Counters)
		}
		if r.DeliveryRate() > g.DeliveryRate() {
			t.Errorf("%s delivery rate %.3f above gossip's %.3f",
				r.Label, r.DeliveryRate(), g.DeliveryRate())
		}
	}
	out := RenderControlPlane(results)
	for _, want := range []string{"FTGM+gossip", "FTGM+central", "STALLED", "SELF-DESTRUCTED", "exactly-once in-order", "dead="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
