package experiments

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// The host-fault comparison's headline: a checkpointed endpoint survives
// host death under every revival regime. The restore schemes come back
// under the suspicion timeout with nothing excused and no dead verdicts;
// the rebirth scheme is buried, readmitted, and only its own disowned
// in-flight sends are excused.
func TestHostFaultComparison(t *testing.T) {
	cfg := chaos.CampaignConfig{
		Trials: 1,
		Trial: chaos.TrialConfig{
			Nodes:     4,
			Traffic:   sim.Second,
			SendEvery: 4 * sim.Millisecond,
			Events:    2,
			MaxSettle: 30 * sim.Second,
		},
	}
	results, err := HostFaultComparison(20030623, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	byLabel := map[string]SchemeResult{}
	for _, r := range results {
		byLabel[r.Label] = r
		if v := HostFaultVerdict(r); v != "exactly-once in-order" {
			t.Errorf("%s verdict = %q: %v (dirty=%v)", r.Label, v,
				r.Campaign.Total, r.Campaign.Total.Dirty)
		}
		if r.Label == "periodic+central" {
			// The periodic scheme serializes base+delta chains, not
			// stop-and-copy anchors.
			continue
		}
		if r.Campaign.Counters.Checkpoints == 0 || r.Campaign.Counters.CheckpointBytes == 0 {
			t.Errorf("%s never serialized a checkpoint: %+v", r.Label, r.Campaign.Counters)
		}
		if r.Campaign.Counters.GossipLiveExpelled != 0 || r.Campaign.Counters.GossipRouteGaps != 0 {
			t.Errorf("%s membership damage: %+v", r.Label, r.Campaign.Counters)
		}
	}
	pc := byLabel["periodic+central"]
	if pc.Campaign.Counters.PeriodicFrames == 0 || pc.Campaign.Counters.PeriodicBytes == 0 {
		t.Errorf("periodic scheme shipped no incremental frames: %+v", pc.Campaign.Counters)
	}
	if pc.Campaign.Counters.PeriodicChainMismatches != 0 {
		t.Errorf("periodic scheme chain replays diverged: %+v", pc.Campaign.Counters)
	}
	// The bounded-drain contract: no partial drain may ever pause the victim
	// longer than the configured budget (200µs in the chaos injector).
	if pc.Campaign.Counters.PeriodicMaxPause > 200*sim.Microsecond {
		t.Errorf("periodic drain pause %v exceeded the 200µs budget", pc.Campaign.Counters.PeriodicMaxPause)
	}
	if pc.Campaign.Counters.HostRestores == 0 {
		t.Errorf("periodic scheme never restored from a chain: %+v", pc.Campaign.Counters)
	}
	for _, label := range []string{"restore+central", "restore+gossip"} {
		r := byLabel[label]
		if r.Campaign.Counters.HostRestores == 0 || r.Campaign.Counters.HostRejoins != 0 {
			t.Errorf("%s revival mix wrong: %+v", label, r.Campaign.Counters)
		}
		if r.Campaign.Total.Excused != 0 {
			t.Errorf("%s excused %d sends; a restored host disowns nothing",
				label, r.Campaign.Total.Excused)
		}
		if r.Campaign.Counters.GossipDeadDeclared != 0 {
			t.Errorf("%s drew dead verdicts for an outage under the suspicion timeout: %+v",
				label, r.Campaign.Counters)
		}
	}
	rb := byLabel["rebirth+gossip"]
	if rb.Campaign.Counters.HostRejoins == 0 || rb.Campaign.Counters.HostRestores != 0 {
		t.Errorf("rebirth revival mix wrong: %+v", rb.Campaign.Counters)
	}
	if rb.Campaign.Counters.GossipDeadDeclared == 0 || rb.Campaign.Counters.GossipReadmissions == 0 {
		t.Errorf("rebirth was never buried and readmitted: %+v", rb.Campaign.Counters)
	}
	if rb.Campaign.Total.Excused == 0 {
		t.Error("the reborn mapper's disowned in-flight sends were never excused")
	}
	out := RenderHostFault(results)
	for _, want := range []string{"restore+central", "restore+gossip", "rebirth+gossip",
		"periodic+central", "exactly-once in-order", "ckpt-bytes=", "max-drain-pause="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
