package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HostFaultVerdict renders a host-fault scheme's outcome. Restore-path
// schemes must be spotless: the outage fits under the suspicion timeout, so
// membership damage of any kind (or a single excused send) is a failure.
// The rebirth scheme legitimately excuses the dead mapper's disowned sends
// but must end with a converged membership.
func HostFaultVerdict(r SchemeResult) string {
	c := r.Campaign.Counters
	switch {
	case !r.Campaign.AllExactlyOnce:
		return "STALLED"
	case c.PeriodicChainMismatches > 0:
		return "CHAIN DIVERGENCE"
	case c.GossipLiveExpelled > 0 || c.GossipRouteGaps > 0:
		return "MEMBERSHIP DAMAGE"
	default:
		return "exactly-once in-order"
	}
}

// HostFaultComparison runs the endpoint checkpoint/restart machinery under
// three revival regimes. restore+central and restore+gossip share the same
// host-death plan: a node is drained at a message boundary, its recovery
// anchor serialized through the internal/ckpt wire codec, the host killed
// mid-burst and a standby restored from the checkpoint a few milliseconds
// later — under the suspicion timeout, so the gossip plane must hold its
// fire. rebirth+gossip stretches the outage past the suspicion timeout: the
// mapping node is buried by the survivors and its revival is a genuine
// readmission campaign, with the checkpointed identity but fresh protocol
// epochs on every stream.
func HostFaultComparison(seed uint64, cfg chaos.CampaignConfig) ([]SchemeResult, error) {
	return runSchemes(seed, HostFaultSchemes(cfg))
}

// HostFaultSchemes expands a base config into the labeled campaigns
// HostFaultComparison runs. Exported so the resumable gmbench runner can
// execute the same campaigns trial by trial across processes.
func HostFaultSchemes(cfg chaos.CampaignConfig) []Scheme {
	cfg.Mode = gm.ModeFTGM
	if len(cfg.Trial.Kinds) == 0 {
		cfg.Trial.Kinds = []chaos.EventKind{chaos.KindHostDeath}
	}
	rebirth := cfg
	rebirth.Trial.Kinds = []chaos.EventKind{chaos.KindMapperRebirth}
	rebirth.Trial.Events = 1
	// The grave must outlast the 3s suspicion timeout and the readmission
	// probes need live traffic on both sides of the revival.
	if rebirth.Trial.Traffic < 12*sim.Second {
		rebirth.Trial.Traffic = 12 * sim.Second
	}
	if rebirth.Trial.MaxSettle < 60*sim.Second {
		rebirth.Trial.MaxSettle = 60 * sim.Second
	}
	// The periodic scheme revives from streamed base+delta chains instead of
	// a stop-and-copy anchor: victims run the incremental checkpointer the
	// whole trial and the revival consumes only bytes a standby host could
	// have accumulated frame by frame.
	periodic := cfg
	periodic.Trial.Kinds = []chaos.EventKind{chaos.KindPeriodicDeath}

	schemes := []Scheme{
		{"restore+central", cfg},
		{"restore+gossip", cfg},
		{"rebirth+gossip", rebirth},
		{"periodic+central", periodic},
	}
	planes := []gm.ControlPlane{gm.ControlPlaneCentral, gm.ControlPlaneGossip,
		gm.ControlPlaneGossip, gm.ControlPlaneCentral}
	for i := range schemes {
		schemes[i].Cfg.Trial.ControlPlane = planes[i]
	}
	return schemes
}

// RenderHostFault prints the comparison.
func RenderHostFault(results []SchemeResult) string {
	t := trace.Table{
		Title: "Host death: checkpointed endpoints restored and reborn",
		Headers: []string{"Scheme", "trials", "sent", "delivered", "rate",
			"excused", "ckpts", "restores", "rejoins", "dead", "verdict"},
	}
	for _, r := range results {
		c := r.Campaign
		t.AddRow(r.Label,
			fmt.Sprintf("%d", len(c.Trials)),
			fmt.Sprintf("%d", c.Total.Sent),
			fmt.Sprintf("%d", c.Total.Unique),
			fmt.Sprintf("%.1f%%", 100*r.DeliveryRate()),
			fmt.Sprintf("%d", c.Total.Excused),
			fmt.Sprintf("%d", c.Counters.Checkpoints),
			fmt.Sprintf("%d", c.Counters.HostRestores),
			fmt.Sprintf("%d", c.Counters.HostRejoins),
			fmt.Sprintf("%d", c.Counters.GossipDeadDeclared),
			HostFaultVerdict(r))
	}
	out := t.Render()
	for _, r := range results {
		c := r.Campaign.Counters
		out += fmt.Sprintf("\n%-16s ckpts=%d ckpt-bytes=%d restores=%d rejoins=%d dead=%d readmitted=%d live-expelled=%d route-gaps=%d",
			r.Label, c.Checkpoints, c.CheckpointBytes, c.HostRestores, c.HostRejoins,
			c.GossipDeadDeclared, c.GossipReadmissions, c.GossipLiveExpelled, c.GossipRouteGaps)
		if c.PeriodicFrames > 0 {
			out += fmt.Sprintf("\n%-16s frames=%d frame-bytes=%d skips=%d max-drain-pause=%v chain-mismatches=%d",
				"", c.PeriodicFrames, c.PeriodicBytes, c.PeriodicSkips,
				c.PeriodicMaxPause, c.PeriodicChainMismatches)
		}
	}
	return out
}
