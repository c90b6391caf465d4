package main

import (
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

	old := filepath.Join(dir, "old.json")
	body := `{"version": 1, "seed": 7, "config": "c", "schemes": [{"label": "x", "trials": 1,
		"done": [{"Trial": 0, "SpecCommits": 3, "SpecRollbacks": 1}]}]}`
	if err := os.WriteFile(old, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadArtifact(old)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 artifact: err = %v, want a version refusal", err)
	}
}
