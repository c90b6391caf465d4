package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Table1Result wraps the ISA-level campaign outcome with the paper's
// reference numbers for side-by-side rendering.
type Table1Result struct {
	Campaign fault.CampaignResult
}

// paperTable1 is Table 1's "Our work" column and the Iyer et al. column.
var paperTable1 = map[fault.Outcome][2]float64{
	fault.OutcomeLocalHang:  {28.6, 23.4},
	fault.OutcomeCorrupted:  {18.3, 12.7},
	fault.OutcomeRemoteHang: {0.0, 1.2},
	fault.OutcomeMCPRestart: {0.0, 3.1},
	fault.OutcomeHostCrash:  {0.6, 0.4},
	fault.OutcomeOther:      {1.2, 1.1},
	fault.OutcomeNoImpact:   {51.3, 58.1},
}

// Table1 runs the fault-injection campaign: `runs` single-bit flips at
// random positions in the assembled send_chunk section.
func Table1(runs int, seed uint64) (Table1Result, error) {
	return Table1Section(fault.SectionSend, runs, seed)
}

// Table1Section runs the campaign against any MCP section — the paper's
// send_chunk or the receive path it only conjectures about ("these results
// could be different if fault injection is carried out on some other
// section of the code", §2).
func Table1Section(section fault.Section, runs int, seed uint64) (Table1Result, error) {
	c, err := fault.NewSectionCampaign(section, seed)
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Campaign: c.Run(runs)}, nil
}

// Table1Exhaustive flips every bit of the section once (a census the paper
// could not afford on hardware).
func Table1Exhaustive(seed uint64) (Table1Result, error) {
	c, err := fault.NewCampaign(seed)
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Campaign: c.Exhaustive()}, nil
}

// RenderSections prints the two sections side by side.
func RenderSections(send, recv Table1Result) string {
	t := trace.Table{
		Title: fmt.Sprintf("Fault injection by MCP section (%d runs each; the paper injected only send_chunk)",
			send.Campaign.Runs),
		Headers: []string{"Failure Category", "send_chunk", "recv_chunk", "paper (send)"},
	}
	for _, o := range fault.Outcomes() {
		t.AddRow(o.String(),
			fmt.Sprintf("%.1f%%", send.Campaign.Percent(o)),
			fmt.Sprintf("%.1f%%", recv.Campaign.Percent(o)),
			fmt.Sprintf("%.1f%%", paperTable1[o][0]))
	}
	return t.Render()
}

// Render prints the distribution next to the paper's columns.
func (r Table1Result) Render() string {
	t := trace.Table{
		Title: fmt.Sprintf("Table 1. Results of fault injection on a Myrinet system (%d runs)",
			r.Campaign.Runs),
		Headers: []string{"Failure Category", "this repro", "paper", "Iyer et al."},
	}
	for _, o := range fault.Outcomes() {
		ref := paperTable1[o]
		t.AddRow(o.String(),
			fmt.Sprintf("%.1f%%", r.Campaign.Percent(o)),
			fmt.Sprintf("%.1f%%", ref[0]),
			fmt.Sprintf("%.1f%%", ref[1]))
	}
	return t.Render()
}
