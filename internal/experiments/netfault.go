package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/trace"
)

// NetworkFaultComparison runs the identical network-fault injection plan —
// permanently dead inter-switch trunks and a full node partition on the
// redundant dual-switch fabric — against stock GM, plain FTGM, and FTGM
// with the network watchdog. The first two have no failover story: streams
// riding the dead trunk stall (FTGM retransmits into the void; GM just
// loses them) until the settle budget expires. The watchdog remaps onto
// the surviving trunk and keeps delivery exactly-once.
func NetworkFaultComparison(seed uint64, cfg chaos.CampaignConfig) ([]SchemeResult, error) {
	cfg.Trial.DualSwitch = true
	if len(cfg.Trial.Kinds) == 0 {
		cfg.Trial.Kinds = chaos.NetFaultKinds()
	}
	cfg.Trial.NetWatch = false
	schemes := []Scheme{{"GM", cfg}, {"FTGM", cfg}, {"FTGM+netwatch", cfg}}
	schemes[0].Cfg.Mode = gm.ModeGM
	schemes[1].Cfg.Mode = gm.ModeFTGM
	schemes[2].Cfg.Mode = gm.ModeFTGM
	schemes[2].Cfg.Trial.NetWatch = true
	return runSchemes(seed, schemes)
}

// NetFaultVerdict renders a network-fault scheme's outcome.
func NetFaultVerdict(r SchemeResult) string {
	if r.Campaign.AllExactlyOnce {
		return "exactly-once in-order"
	}
	return "STALLED"
}

// RenderNetFault prints the comparison.
func RenderNetFault(results []SchemeResult) string {
	t := trace.Table{
		Title: "Network faults: dead trunks and partitions on a dual-switch fabric",
		Headers: []string{"Scheme", "trials", "sent", "delivered", "rate",
			"lost", "failed", "remaps", "expelled", "verdict"},
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
			fmt.Sprintf("%d", c.Counters.NetRemaps),
			fmt.Sprintf("%d", c.Counters.NetUnreachable),
			NetFaultVerdict(r))
	}
	out := t.Render()
	for _, r := range results {
		c := r.Campaign.Counters
		out += fmt.Sprintf("\n%-13s suspicions=%d incidents=%d remaps=%d remap-failures=%d probes=%d expelled=%d readmitted=%d failed-sends=%d",
			r.Label, c.NetFaultSuspicions, c.NetIncidents, c.NetRemaps, c.NetRemapFailures,
			c.NetProbes, c.NetUnreachable, c.NetReadmissions, c.UnreachableFails)
	}
	return out
}
