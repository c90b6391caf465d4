package chaos

import (
	"reflect"
	"testing"

	"repro/gm"
	"repro/internal/sim"
)

const testSeed = 20030623 // DSN 2003, San Francisco

func testCampaignConfig(mode gm.Mode) CampaignConfig {
	cfg := DefaultCampaignConfig()
	cfg.Mode = mode
	cfg.Trials = 2
	// Lighter traffic than the default campaign keeps the test quick; the
	// injection plan (all seven fault classes per trial) is unchanged.
	cfg.Trial.SendEvery = 4 * sim.Millisecond
	if testing.Short() {
		cfg.Trials = 1
	}
	return cfg
}

// The acceptance campaign: hang-during-recovery, dual hangs, link flaps,
// degraded links, port death and reload failures, with FTGM delivering
// every message exactly once, in order.
func TestFTGMCampaignExactlyOnceInOrder(t *testing.T) {
	res, err := Run(testSeed, testCampaignConfig(gm.ModeFTGM))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Sent == 0 {
		t.Fatal("campaign sent nothing")
	}
	if !res.AllExactlyOnce {
		for _, tr := range res.Trials {
			t.Logf("trial %d: %v dirty=%v (events: %v)", tr.Trial, tr.Audit, tr.Audit.Dirty, tr.Events)
		}
		t.Fatalf("FTGM audit dirty: %v", res.Total)
	}
	// The plan must actually have exercised every fault class.
	kinds := make(map[EventKind]bool)
	for _, tr := range res.Trials {
		for _, ev := range tr.Events {
			kinds[ev.Kind] = true
		}
	}
	rec := res.Counters
	for _, k := range AllKinds() {
		if !kinds[k] {
			t.Errorf("fault class %v never injected", k)
		}
	}
	if rec.Recoveries == 0 {
		t.Error("no FTD recoveries despite injected hangs")
	}
	if rec.RecoveryRestarts == 0 {
		t.Error("hang-during-recovery never restarted the FTD sequence")
	}
	if rec.ReloadRetries == 0 {
		t.Error("reload-failure events never exercised the retry path")
	}
	if rec.FaultDrops == 0 && rec.Corruptions == 0 {
		t.Error("link degrade windows injected no damage")
	}
	if rec.Retransmits == 0 {
		t.Error("no Go-Back-N repair despite injected losses")
	}
	if rec.RecoveryFailures != 0 {
		t.Errorf("unexpected terminal recovery failures: %d", rec.RecoveryFailures)
	}
}

// The same fault sequences against stock GM (with the §3 naive-restart
// watchdog) must demonstrably break delivery: duplicates, losses, or
// reordering.
func TestGMCampaignBreaksDelivery(t *testing.T) {
	cfg := testCampaignConfig(gm.ModeGM)
	cfg.Trial.MaxSettle = 30 * sim.Second
	res, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Sent == 0 {
		t.Fatal("campaign sent nothing")
	}
	if res.AllExactlyOnce {
		t.Fatalf("stock GM survived the chaos campaign unscathed: %v", res.Total)
	}
	if res.Total.Duplicates+res.Total.Lost+res.Total.OutOfOrder+res.Total.Corrupt == 0 {
		t.Errorf("no delivery defects recorded: %v", res.Total)
	}
}

// The seed-split contract: a campaign fanned out over N workers is
// bit-for-bit identical to the serial run.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	cfg := testCampaignConfig(gm.ModeFTGM)
	cfg.Workers = 1
	serial, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	fanned, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("results differ across worker counts:\n 1 worker: %+v\n 4 workers: %+v", serial, fanned)
	}
}

// Audit payloads round-trip, and damage is detected.
func TestAuditPayloadRoundTrip(t *testing.T) {
	k := StreamKey{Src: 3, SrcPort: 2, Dst: 300, DstPort: 7}
	buf := make([]byte, MinMsgBytes)
	encodeAudit(buf, k, 41)
	got, idx, ok := decodeAudit(buf)
	if !ok || got != k || idx != 41 {
		t.Fatalf("round trip = %v %d %v", got, idx, ok)
	}
	buf[13]++ // damage the index
	if _, _, ok := decodeAudit(buf); ok {
		t.Error("checksum missed damage")
	}
	if _, _, ok := decodeAudit(buf[:8]); ok {
		t.Error("short payload decoded")
	}
}

// The auditor's verdict logic: duplicates, reordering, loss and corruption
// each break exactly-once in-order.
func TestAuditorVerdicts(t *testing.T) {
	k := StreamKey{Src: 1, SrcPort: 2, Dst: 2, DstPort: 2}
	deliver := func(a *Auditor, idx uint32) {
		buf := make([]byte, MinMsgBytes)
		encodeAudit(buf, k, idx)
		a.RecordDelivery(k.Dst, k.DstPort, gm.RecvEvent{Data: buf, Src: k.Src, SrcPort: k.SrcPort})
	}
	send := func(a *Auditor, n int) {
		for i := 0; i < n; i++ {
			a.NewMessage(k, MinMsgBytes)
		}
	}

	a := NewAuditor()
	send(a, 3)
	deliver(a, 1)
	deliver(a, 2)
	if a.Complete() {
		t.Error("complete with one message outstanding")
	}
	deliver(a, 3)
	if !a.Complete() {
		t.Error("not complete after full delivery")
	}
	if r := a.Report(); !r.ExactlyOnceInOrder || r.Sent != 3 || r.Unique != 3 {
		t.Errorf("clean run report = %v", r)
	}

	a = NewAuditor()
	send(a, 2)
	deliver(a, 1)
	deliver(a, 1)
	deliver(a, 2)
	if r := a.Report(); r.ExactlyOnceInOrder || r.Duplicates != 1 {
		t.Errorf("duplicate report = %v", r)
	}

	a = NewAuditor()
	send(a, 2)
	deliver(a, 2)
	deliver(a, 1)
	if r := a.Report(); r.ExactlyOnceInOrder || r.OutOfOrder != 1 {
		t.Errorf("reorder report = %v", r)
	}

	a = NewAuditor()
	send(a, 2)
	deliver(a, 1)
	if r := a.Report(); r.ExactlyOnceInOrder || r.Lost != 1 {
		t.Errorf("loss report = %v", r)
	}

	a = NewAuditor()
	send(a, 1)
	buf := make([]byte, MinMsgBytes)
	encodeAudit(buf, k, 1)
	buf[2] ^= 0x40 // break the magic
	a.RecordDelivery(k.Dst, k.DstPort, gm.RecvEvent{Data: buf, Src: k.Src, SrcPort: k.SrcPort})
	if r := a.Report(); r.ExactlyOnceInOrder || r.Corrupt != 1 {
		t.Errorf("corrupt report = %v", r)
	}

	// Unsend rolls a refused send back out of the books.
	a = NewAuditor()
	send(a, 1)
	a.Unsend(k)
	if r := a.Report(); r.Sent != 0 {
		t.Errorf("unsend report = %v", r)
	}

	// A terminally-failed undelivered send is excused from loss; a failed
	// send that arrived anyway simply counts as delivered.
	a = NewAuditor()
	send(a, 2)
	deliver(a, 1)
	fail := make([]byte, MinMsgBytes)
	encodeAudit(fail, k, 2)
	a.RecordSendFailure(fail)
	if !a.Complete() {
		t.Error("not complete with the outstanding send excused")
	}
	if r := a.Report(); !r.ExactlyOnceInOrder || r.Lost != 0 || r.Failed != 1 {
		t.Errorf("excused-failure report = %v", r)
	}
	deliver(a, 2)
	if r := a.Report(); !r.ExactlyOnceInOrder || r.Unique != 2 || r.Duplicates != 0 {
		t.Errorf("failed-but-delivered report = %v", r)
	}
}

func netFaultTrialConfig() TrialConfig {
	cfg := DefaultTrialConfig()
	cfg.DualSwitch = true
	cfg.NetWatch = true
	cfg.Traffic = sim.Second
	cfg.SendEvery = 4 * sim.Millisecond
	cfg.Events = 2
	cfg.Kinds = NetFaultKinds()
	cfg.MaxSettle = 30 * sim.Second
	return cfg
}

// The network-fault acceptance campaign: dead trunks and a full node
// partition on the dual-switch fabric, with the watchdog remapping onto the
// surviving trunk. Everything the library accepted and did not terminally
// fail is delivered exactly once, in order.
func TestNetFaultCampaignFailoverExactlyOnce(t *testing.T) {
	cfg := CampaignConfig{Trials: 2, Mode: gm.ModeFTGM, Trial: netFaultTrialConfig()}
	if testing.Short() {
		cfg.Trials = 1
	}
	res, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Sent == 0 {
		t.Fatal("campaign sent nothing")
	}
	if !res.AllExactlyOnce {
		for _, tr := range res.Trials {
			t.Logf("trial %d: %v dirty=%v (events: %v)", tr.Trial, tr.Audit, tr.Audit.Dirty, tr.Events)
		}
		t.Fatalf("netfault audit dirty: %v", res.Total)
	}
	sum := res.Counters
	if sum.NetFaultSuspicions == 0 || sum.NetSuspicions == 0 {
		t.Errorf("no path-fault suspicions raised: %+v", sum)
	}
	if sum.NetRemaps == 0 {
		t.Error("the watchdog never remapped")
	}
	if sum.NetUnreachable == 0 {
		t.Error("the partition never produced an unreachable verdict")
	}
}

// The contrast: the same trunk kill without the watchdog leaves plain FTGM
// retransmitting into the void — the trial never drains and the auditor
// records losses.
func TestNetFaultCampaignStallsWithoutWatchdog(t *testing.T) {
	cfg := CampaignConfig{Trials: 1, Mode: gm.ModeFTGM, Trial: netFaultTrialConfig()}
	cfg.Trial.NetWatch = false
	cfg.Trial.Events = 1
	cfg.Trial.Kinds = []EventKind{KindTrunkDeath}
	cfg.Trial.MaxSettle = 10 * sim.Second
	res, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllExactlyOnce {
		t.Fatalf("plain FTGM survived a trunk death it cannot route around: %v", res.Total)
	}
	if res.Total.Lost == 0 {
		t.Errorf("no losses recorded on a stalled fabric: %v", res.Total)
	}
	if res.Trials[0].NetFaultSuspicions == 0 {
		t.Error("detection did not fire (it should run even without the daemon)")
	}
	if res.Trials[0].NetRemaps != 0 {
		t.Errorf("remaps without a watchdog: %+v", res.Trials[0])
	}
}

func mapperDeathTrialConfig() TrialConfig {
	cfg := DefaultTrialConfig()
	cfg.Traffic = sim.Second
	cfg.SendEvery = 4 * sim.Millisecond
	cfg.Events = 1
	cfg.Kinds = []EventKind{KindMapperDeath}
	cfg.MaxSettle = 30 * sim.Second
	return cfg
}

// The mapper-death acceptance campaign: node 0 — the boot-time mapper —
// hard-hangs in the middle of an active remap window, taking its chip
// timers (and any centralized repair authority) with it. The gossip plane
// has no distinguished node: the survivors expel exactly the dead member
// by distributed agreement, rebuild full route tables among themselves,
// and every message the library did not terminally fail is delivered
// exactly once, in order.
func TestCampaignMapperDeathGossipSurvives(t *testing.T) {
	tcfg := mapperDeathTrialConfig()
	tcfg.ControlPlane = gm.ControlPlaneGossip
	cfg := CampaignConfig{Trials: 2, Mode: gm.ModeFTGM, Trial: tcfg}
	if testing.Short() {
		cfg.Trials = 1
	}
	res, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Sent == 0 {
		t.Fatal("campaign sent nothing")
	}
	if !res.AllExactlyOnce {
		for _, tr := range res.Trials {
			t.Logf("trial %d: %v dirty=%v (events: %v)", tr.Trial, tr.Audit, tr.Audit.Dirty, tr.Events)
		}
		t.Fatalf("mapper-death audit dirty under gossip: %v", res.Total)
	}
	if res.Total.Excused == 0 {
		t.Error("the dead mapper's unfinished sends were never excused")
	}
	for _, tr := range res.Trials {
		if tr.GossipProbes == 0 {
			t.Errorf("trial %d: gossip plane never probed: %+v", tr.Trial, tr)
		}
		if tr.GossipDeadDeclared == 0 {
			t.Errorf("trial %d: the dead mapper was never declared dead: %+v", tr.Trial, tr)
		}
		if tr.GossipLiveExpelled != 0 {
			t.Errorf("trial %d: distributed agreement expelled %d live nodes", tr.Trial, tr.GossipLiveExpelled)
		}
		if tr.GossipRouteGaps != 0 {
			t.Errorf("trial %d: %d survivor route-table gaps after convergence", tr.Trial, tr.GossipRouteGaps)
		}
		if tr.NetRemaps != 0 || tr.NetUnreachable != 0 {
			t.Errorf("trial %d: central watchdog activity under the gossip plane: %+v", tr.Trial, tr)
		}
	}
}

// The contrast, part one: the centralized watchdog lives on the mapper
// node, so the mapper's death leaves repair in the hands of a corpse. Its
// remap scouts transmit into a dead chip and return a one-node map — node
// 0 alone — which the daemon happily installs, and one grace period later
// every live survivor has been expelled as "unreachable". The survivors'
// pending sends are terminally failed, so the audit is only vacuously
// clean: the cluster has destroyed itself, not recovered.
func TestCampaignMapperDeathCentralCollapses(t *testing.T) {
	tcfg := mapperDeathTrialConfig()
	tcfg.NetWatch = true
	cfg := CampaignConfig{Trials: 1, Mode: gm.ModeFTGM, Trial: tcfg}
	res, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trials[0]
	if tr.GossipProbes != 0 {
		t.Errorf("gossip activity in a central-plane trial: %+v", tr)
	}
	if tr.NetUnreachable < uint64(tcfg.Nodes-1) {
		t.Errorf("central watchdog did not expel the live survivors (NetUnreachable=%d, want >= %d): %+v",
			tr.NetUnreachable, tcfg.Nodes-1, tr)
	}
	if tr.Audit.Failed == 0 {
		t.Errorf("no terminally failed survivor sends despite mass expulsion: %v", tr.Audit)
	}
}

// The contrast, part two: plain FTGM with no repair plane at all simply
// retransmits at the dead mapper forever — the trial never drains and the
// auditor records the survivors' losses.
func TestCampaignMapperDeathStallsWithoutPlane(t *testing.T) {
	tcfg := mapperDeathTrialConfig()
	tcfg.MaxSettle = 10 * sim.Second
	cfg := CampaignConfig{Trials: 1, Mode: gm.ModeFTGM, Trial: tcfg}
	res, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllExactlyOnce {
		t.Fatalf("plain FTGM survived the death of a peer it still holds traffic for: %v", res.Total)
	}
	if res.Total.Lost == 0 {
		t.Errorf("no losses recorded on a stalled cluster: %v", res.Total)
	}
	if res.Trials[0].NetRemaps != 0 || res.Trials[0].GossipProbes != 0 {
		t.Errorf("repair-plane activity without a plane: %+v", res.Trials[0])
	}
}

// The mapper-death gossip campaign obeys both determinism contracts: the
// worker-count contract (trials fan out over any worker count bit-for-bit)
// and the shard contract (each trial's cluster produces identical results
// on the classic engine and on the sharded engine at any shard count).
func TestCampaignMapperDeathInvariance(t *testing.T) {
	tcfg := mapperDeathTrialConfig()
	tcfg.ControlPlane = gm.ControlPlaneGossip
	cfg := CampaignConfig{Trials: 2, Mode: gm.ModeFTGM, Trial: tcfg}
	if testing.Short() {
		cfg.Trials = 1
	}
	cfg.Workers = 1
	serial, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	fanned, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("results differ across worker counts:\n 1 worker: %+v\n 4 workers: %+v", serial, fanned)
	}

	cfg.Workers = 0
	cfg.Trial.Shards = 1
	base, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 8} {
		cfg.Trial.Shards = shards
		got, err := Run(testSeed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Only the config differs; the accounting must not.
		for i := range got.Trials {
			if !reflect.DeepEqual(base.Trials[i], got.Trials[i]) {
				t.Fatalf("trial %d differs between 1 and %d shards:\n 1: %+v\n %d: %+v",
					i, shards, base.Trials[i], shards, got.Trials[i])
			}
		}
	}
}

// TestAssembleCampaignCounters: the campaign's Counters are the per-trial
// counters summed field by field, except PeriodicMaxPause, which keeps the
// worst pause. Every field is set, so a counter merge forgets shows up.
func TestAssembleCampaignCounters(t *testing.T) {
	trials := make([]TrialResult, 2)
	for i := range trials {
		v := reflect.ValueOf(&trials[i].Counters).Elem()
		for f := 0; f < v.NumField(); f++ {
			if fv := v.Field(f); fv.Kind() == reflect.Uint64 {
				fv.SetUint(uint64((i + 1) * (f + 1)))
			}
		}
	}
	trials[0].PeriodicMaxPause = 7 * sim.Microsecond
	trials[1].PeriodicMaxPause = 3 * sim.Microsecond

	got := AssembleCampaign(testSeed, gm.ModeFTGM, trials).Counters
	gv := reflect.ValueOf(got)
	for f := 0; f < gv.NumField(); f++ {
		name := gv.Type().Field(f).Name
		if name == "PeriodicMaxPause" {
			continue
		}
		if want := uint64(3 * (f + 1)); gv.Field(f).Uint() != want {
			t.Errorf("%s = %d, want the sum %d", name, gv.Field(f).Uint(), want)
		}
	}
	if got.PeriodicMaxPause != 7*sim.Microsecond {
		t.Errorf("PeriodicMaxPause = %v, want the larger 7µs", got.PeriodicMaxPause)
	}
}
