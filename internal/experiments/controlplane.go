package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/trace"
)

// ControlPlaneVerdict renders a control-plane scheme's outcome. The
// central watchdog's failure mode is subtle: its audit can be vacuously
// clean because it terminally failed the survivors' sends after expelling
// every live node, so a clean audit only counts as recovery when no live
// node was expelled.
func ControlPlaneVerdict(r SchemeResult) string {
	c := r.Campaign.Counters
	switch {
	case !r.Campaign.AllExactlyOnce:
		return "STALLED"
	case c.NetUnreachable > 0 || c.GossipLiveExpelled > 0:
		return "SELF-DESTRUCTED"
	default:
		return "exactly-once in-order"
	}
}

// ControlPlaneComparison runs the identical mapper-death injection plan —
// node 0, the boot-time mapper, hard-hangs in the middle of an active
// remap window — against three FTGM repair planes. Plain FTGM has no
// repair story: traffic held for the corpse retransmits forever and the
// trial never drains. The centralized watchdog is worse than nothing: its
// remap scouts transmit into the dead chip, come back with a one-node map,
// and one grace period later every live survivor has been expelled as
// unreachable. The gossip plane has no distinguished node — the survivors
// expel exactly the dead member by distributed agreement, splice routes
// among themselves, and keep delivery exactly-once in-order.
func ControlPlaneComparison(seed uint64, cfg chaos.CampaignConfig) ([]SchemeResult, error) {
	cfg.Mode = gm.ModeFTGM
	if len(cfg.Trial.Kinds) == 0 {
		cfg.Trial.Kinds = []chaos.EventKind{chaos.KindMapperDeath}
	}
	cfg.Trial.NetWatch = false
	cfg.Trial.ControlPlane = gm.ControlPlaneCentral
	schemes := []Scheme{{"FTGM", cfg}, {"FTGM+central", cfg}, {"FTGM+gossip", cfg}}
	schemes[1].Cfg.Trial.NetWatch = true
	schemes[2].Cfg.Trial.ControlPlane = gm.ControlPlaneGossip
	return runSchemes(seed, schemes)
}

// RenderControlPlane prints the comparison.
func RenderControlPlane(results []SchemeResult) string {
	t := trace.Table{
		Title: "Control planes: the boot-time mapper dies mid-remap",
		Headers: []string{"Scheme", "trials", "sent", "delivered", "rate",
			"lost", "failed", "excused", "dead", "live-expelled", "verdict"},
	}
	for _, r := range results {
		c := r.Campaign
		t.AddRow(r.Label,
			fmt.Sprintf("%d", len(c.Trials)),
			fmt.Sprintf("%d", c.Total.Sent),
			fmt.Sprintf("%d", c.Total.Unique),
			fmt.Sprintf("%.1f%%", 100*r.DeliveryRate()),
			fmt.Sprintf("%d", c.Total.Lost),
			fmt.Sprintf("%d", c.Total.Failed),
			fmt.Sprintf("%d", c.Total.Excused),
			fmt.Sprintf("%d", c.Counters.GossipDeadDeclared),
			fmt.Sprintf("%d", c.Counters.NetUnreachable+c.Counters.GossipLiveExpelled),
			ControlPlaneVerdict(r))
	}
	out := t.Render()
	for _, r := range results {
		c := r.Campaign.Counters
		out += fmt.Sprintf("\n%-13s remaps=%d unreachable=%d probes=%d suspicions=%d dead=%d readmitted=%d live-expelled=%d route-gaps=%d failed-sends=%d",
			r.Label, c.NetRemaps, c.NetUnreachable, c.GossipProbes, c.GossipSuspicions,
			c.GossipDeadDeclared, c.GossipReadmissions, c.GossipLiveExpelled, c.GossipRouteGaps, c.UnreachableFails)
	}
	return out
}
