package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// TestSelectSections: -mode runs the named sections in the order given,
// aliases expand in place, and an unknown or repeated name is an error that
// names the culprit instead of being skipped.
func TestSelectSections(t *testing.T) {
	secs, err := selectSections("table2, table1")
	if err != nil || len(secs) != 2 || secs[0].name != "table2" || secs[1].name != "table1" {
		t.Fatalf("table2,table1: %v, %v", secs, err)
	}
	for alias, names := range aliases {
		if secs, err := selectSections(alias); err != nil || len(secs) != len(names) {
			t.Errorf("%s: %d sections, %v", alias, len(secs), err)
		}
	}

	_, err = selectSections("table2,tabel1")
	if err == nil || !strings.Contains(err.Error(), `"tabel1"`) || !strings.Contains(err.Error(), "table1") {
		t.Errorf("unknown name: err = %v, want it named with the valid names listed", err)
	}
	for _, mode := range []string{"table1,table1", "all,bw"} {
		if _, err := selectSections(mode); err == nil || !strings.Contains(err.Error(), "more than once") {
			t.Errorf("%s: err = %v, want a duplicate refusal", mode, err)
		}
	}
}

// TestLoadBaselineNeedsSections: a baseline is a -benchjson file; anything
// without a sections map (a -json results file, say) is refused.
func TestLoadBaselineNeedsSections(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(good, []byte(`{"num_cpu": 2, "sections": {"fig7_bw": {"wall_ns": 5, "ops": 1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, cpu, err := loadBaseline(good); err != nil || cpu != 2 || s["fig7_bw"].WallNs != 5 {
		t.Fatalf("benchjson baseline: %v, %d, %v", s, cpu, err)
	}
	bad := filepath.Join(dir, "results.json")
	if err := os.WriteFile(bad, []byte(`{"wall_clock_sec": 1.5, "gm_bandwidth_mbs": 120}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBaseline(bad); err == nil || !strings.Contains(err.Error(), "no sections") {
		t.Errorf("file without sections: err = %v, want a refusal", err)
	}
}

// TestSharedExperimentsRunOnce: sections that share an experiment take it
// from the invocation's cache instead of running it again — table1 and
// sections share the send_chunk campaign, table3 and timeline one Table 3.
func TestSharedExperimentsRunOnce(t *testing.T) {
	o := &opts{runs: 20, seed: 7, table1: map[fault.Section]experiments.Table1Result{
		fault.SectionSend: {Campaign: fault.CampaignResult{Runs: 3}},
	}}
	res, err := runSections(o)
	if err != nil {
		t.Fatal(err)
	}
	v := res.value.(map[string]outcomes)
	if v["send_chunk"].Runs != 3 || v["recv_chunk"].Runs != 20 {
		t.Errorf("sections: send %d runs, recv %d runs; want the cached 3 and a fresh 20",
			v["send_chunk"].Runs, v["recv_chunk"].Runs)
	}

	o.table3 = &experiments.Table3Result{Runs: 9}
	res, err = runTable3(o)
	if err != nil {
		t.Fatal(err)
	}
	if runs := res.value.(map[string]float64)["runs"]; runs != 9 {
		t.Errorf("table3: %v runs, want the cached 9", runs)
	}
}
