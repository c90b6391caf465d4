package chaos

import (
	"reflect"
	"testing"

	"repro/gm"
	"repro/internal/sim"
)

// compoundTrialConfig is the compound-fault cell on the sharded engine:
// ACK-hunted processor hangs, link flaps and a host death with a standby
// restore in one trial.
func compoundTrialConfig() TrialConfig {
	cfg := DefaultTrialConfig()
	cfg.Traffic = sim.Second
	cfg.SendEvery = 4 * sim.Millisecond
	cfg.Kinds = []EventKind{KindHang, KindLinkFlap, KindHostDeath}
	cfg.Events = 3
	cfg.MaxSettle = 30 * sim.Second
	return cfg
}

// TestCampaignCompoundShardInvariance: a compound-fault campaign (hang +
// link flap + host death) must deliver exactly-once in-order, restore the
// dead host in every trial, and produce accounting bit-identical at 1, 4
// and 8 shards — the window schedule may never leak a delivery, a
// duplicate, or a phantom counter into the books.
func TestCampaignCompoundShardInvariance(t *testing.T) {
	cfg := CampaignConfig{Trials: 2, Mode: gm.ModeFTGM, Trial: compoundTrialConfig()}
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
		if tr.Checkpoints == 0 || tr.HostRestores == 0 {
			t.Fatalf("trial %d never restored the dead host: %+v", i, tr)
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
