package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/trace"
)

// SchemeResult is one scheme's showing under a campaign comparison. The
// comparisons share it; each keeps its own verdict rule.
type SchemeResult struct {
	Label    string
	Campaign chaos.CampaignResult
}

// DeliveryRate is the fraction of accepted sends that arrived (duplicates
// not counted): the headline number a stalled scheme drags down.
func (r SchemeResult) DeliveryRate() float64 {
	if r.Campaign.Total.Sent == 0 {
		return 0
	}
	return float64(r.Campaign.Total.Unique) / float64(r.Campaign.Total.Sent)
}

// Scheme pairs a scheme label with the campaign config it runs.
type Scheme struct {
	Label string
	Cfg   chaos.CampaignConfig
}

// runSchemes runs each scheme's campaign in order.
func runSchemes(seed uint64, schemes []Scheme) ([]SchemeResult, error) {
	results := make([]SchemeResult, 0, len(schemes))
	for _, s := range schemes {
		res, err := chaos.Run(seed, s.Cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, SchemeResult{Label: s.Label, Campaign: res})
	}
	return results, nil
}

// ChaosComparison runs the same seed-split chaos campaign — compound hangs
// (including hang-during-recovery and simultaneous dual hangs), flapping
// and degraded cables, dead crossbar ports, and failing MCP reloads —
// against stock GM (with the §3 naive-restart watchdog) and against FTGM.
// The stream auditor's exactly-once in-order verdict is the headline: FTGM
// must come back clean, and the identical fault plan must visibly break
// the baseline.
func ChaosComparison(seed uint64, cfg chaos.CampaignConfig) ([]SchemeResult, error) {
	schemes := []Scheme{{"GM", cfg}, {"FTGM", cfg}}
	schemes[0].Cfg.Mode, schemes[1].Cfg.Mode = gm.ModeGM, gm.ModeFTGM
	return runSchemes(seed, schemes)
}

// ChaosVerdict renders a chaos scheme's outcome.
func ChaosVerdict(r SchemeResult) string {
	if r.Campaign.AllExactlyOnce {
		return "exactly-once in-order"
	}
	return "BROKEN"
}

// RenderChaos prints the campaign comparison.
func RenderChaos(results []SchemeResult) string {
	t := trace.Table{
		Title: "Chaos campaign: compound faults with end-to-end delivery audit",
		Headers: []string{"Scheme", "trials", "clean", "sent", "delivered",
			"dups", "ooo", "lost", "corrupt", "verdict"},
	}
	for _, r := range results {
		c := r.Campaign
		t.AddRow(r.Label,
			fmt.Sprintf("%d", len(c.Trials)),
			fmt.Sprintf("%d", c.CleanTrials),
			fmt.Sprintf("%d", c.Total.Sent),
			fmt.Sprintf("%d", c.Total.Delivered),
			fmt.Sprintf("%d", c.Total.Duplicates),
			fmt.Sprintf("%d", c.Total.OutOfOrder),
			fmt.Sprintf("%d", c.Total.Lost),
			fmt.Sprintf("%d", c.Total.Corrupt),
			ChaosVerdict(r))
	}
	out := t.Render()
	for _, r := range results {
		c := r.Campaign.Counters
		out += fmt.Sprintf("\n%-5s recoveries=%d recovery-restarts=%d reload-retries=%d terminal-failures=%d naive-restarts=%d",
			r.Label, c.Recoveries, c.RecoveryRestarts, c.ReloadRetries, c.RecoveryFailures, c.NaiveRestarts)
	}
	return out
}
