package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadArtifactRejectsOldVersion: an artifact written by a binary with a
// different trial-result layout must be refused, never folded.
func TestLoadArtifactRejectsOldVersion(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.json")
	if err := writeArtifact(cur, &campaignArtifact{Version: artifactVersion, Seed: 7, Config: "c"}); err != nil {
		t.Fatal(err)
	}
	if art, err := loadArtifact(cur); err != nil || art.Seed != 7 || art.Config != "c" {
		t.Fatalf("current-version artifact: %+v, %v", art, err)
	}

	for v, body := range map[int]string{
		1: `{"version": 1, "seed": 7, "config": "c", "schemes": [{"label": "x", "trials": 1,
		"done": [{"Trial": 0, "SpecCommits": 3, "SpecRollbacks": 1}]}]}`,
		2: `{"version": 2, "seed": 7, "config": "c", "schemes": [{"label": "x", "trials": 1,
		"done": [{"Trial": 0, "Recoveries": 2, "NetRemaps": 1}]}]}`,
	} {
		old := filepath.Join(dir, "old.json")
		if err := os.WriteFile(old, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadArtifact(old)
		if want := fmt.Sprintf("version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d artifact: err = %v, want a version refusal naming %q", v, err, want)
		}
	}
}
