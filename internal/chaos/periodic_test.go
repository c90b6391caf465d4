package chaos

import (
	"reflect"
	"testing"

	"repro/gm"
	"repro/internal/sim"
)

func periodicTrialConfig() TrialConfig {
	cfg := DefaultTrialConfig()
	cfg.Traffic = sim.Second
	cfg.SendEvery = 4 * sim.Millisecond
	cfg.Events = 2
	cfg.Kinds = []EventKind{KindPeriodicDeath}
	cfg.MaxSettle = 30 * sim.Second
	return cfg
}

// The periodic-checkpoint acceptance campaign: each victim streams an
// incremental base+delta chain under live traffic, is killed mid-burst at a
// drained-and-caught-up instant, and is revived from the replayed chain
// alone — never from a fresh full checkpoint. Delivery must stay
// exactly-once in-order with nothing excused, every chain must replay
// bit-identical to the full checkpoint taken at the kill instant, and no
// drain pause may ever exceed the configured budget.
func TestCampaignPeriodicDeathExactlyOnce(t *testing.T) {
	cfg := CampaignConfig{Trials: 2, Mode: gm.ModeFTGM, Trial: periodicTrialConfig()}
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
		t.Fatalf("periodic-death audit dirty: %v", res.Total)
	}
	if res.Total.Excused != 0 {
		t.Errorf("chain-restore trials excused %d sends; a restored host disowns nothing", res.Total.Excused)
	}
	for _, tr := range res.Trials {
		if tr.PeriodicFrames == 0 || tr.PeriodicBytes == 0 {
			t.Errorf("trial %d: no checkpoint frame ever shipped: %+v", tr.Trial, tr)
		}
		if tr.PeriodicChainMismatches != 0 {
			t.Errorf("trial %d: %d chain replays diverged from the full checkpoint", tr.Trial, tr.PeriodicChainMismatches)
		}
		if tr.PeriodicMaxPause > 200*sim.Microsecond {
			t.Errorf("trial %d: drain pause %v exceeded the 200µs budget", tr.Trial, tr.PeriodicMaxPause)
		}
		if tr.HostRestores == 0 {
			t.Errorf("trial %d: no chain restore completed: %+v", tr.Trial, tr)
		}
	}
}

// Periodic-death campaigns obey the determinism contract: the accounting —
// including every frame count, chain byte, skip and the max drain pause — is
// bit-for-bit identical at 4 and 8 shards to the 1-shard run.
func TestCampaignPeriodicDeathInvariance(t *testing.T) {
	cfg := CampaignConfig{Trials: 2, Mode: gm.ModeFTGM, Trial: periodicTrialConfig()}
	if testing.Short() {
		cfg.Trials = 1
	}
	cfg.Trial.Shards = 1
	ref, err := Run(testSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllExactlyOnce {
		t.Fatalf("1-shard campaign audit dirty: %v", ref.Total)
	}
	for i, tr := range ref.Trials {
		if tr.PeriodicFrames == 0 {
			t.Fatalf("trial %d shipped no frames: %+v", i, tr)
		}
		if tr.PeriodicChainMismatches != 0 {
			t.Fatalf("trial %d: %d chain replays diverged", i, tr.PeriodicChainMismatches)
		}
	}
	for _, shards := range []int{4, 8} {
		cfg.Trial.Shards = shards
		got, err := Run(testSeed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range got.Trials {
			if !reflect.DeepEqual(ref.Trials[i], tr) {
				t.Fatalf("trial %d differs from the 1-shard run at %d shards:\n ref: %+v\n got: %+v",
					i, shards, ref.Trials[i], tr)
			}
		}
	}
}
