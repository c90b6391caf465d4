package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

// Campaign distribution (-ckpt-every / -resume-from): the hostfault campaign
// is a pile of independent trials, each a pure function of (seed, trial
// index) by the engine's determinism contract — the same contract sim.Snapshot
// cursors attest within one simulation. That makes the campaign itself
// resumable across processes and machines: run trials one at a time, write
// the accumulated results plus a cursor to a JSON artifact every N trials,
// and a later gmbench invocation — anywhere, any worker or shard count —
// validates the artifact's seed and config fingerprint, skips the completed
// prefix, and finishes the rest. The folded result is bit-identical to a
// single uninterrupted run.

// artifactVersion guards the artifact layout; a mismatch means the writing
// and resuming binaries disagree about the trial accounting and the resumed
// campaign could not be folded faithfully. Version 2 dropped the run-ahead
// outcome counters version 1 carried in every chaos.TrialResult; version 3
// moved the counters into the embedded, json-tagged chaos.Counters.
const artifactVersion = 3

type campaignArtifact struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Config fingerprints the full campaign configuration. Trials are pure
	// functions of (seed, index, config); resuming under a different config
	// would silently splice two different campaigns, so a mismatch refuses.
	Config  string           `json:"config"`
	Schemes []schemeArtifact `json:"schemes"`
}

type schemeArtifact struct {
	Label  string `json:"label"`
	Trials int    `json:"trials"` // planned trial count for the scheme
	// Done holds the completed trials in index order; its length is the
	// resume cursor.
	Done []chaos.TrialResult `json:"done"`
}

func configFingerprint(schemes []experiments.Scheme) string {
	return fmt.Sprintf("%+v", schemes)
}

// writeArtifact persists the artifact atomically: a torn write must never
// masquerade as a valid resume point.
func writeArtifact(path string, art *campaignArtifact) error {
	buf, err := json.MarshalIndent(art, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func loadArtifact(path string) (*campaignArtifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	art := &campaignArtifact{}
	if err := json.Unmarshal(buf, art); err != nil {
		return nil, fmt.Errorf("artifact %s: %w", path, err)
	}
	if art.Version != artifactVersion {
		return nil, fmt.Errorf("artifact %s: version %d, this binary writes %d", path, art.Version, artifactVersion)
	}
	return art, nil
}

// runHostFaultResumable runs the hostfault comparison trial by trial,
// checkpointing the campaign artifact every `every` completed trials (always
// once at the end when a path is set). With resumeFrom it validates the
// prior artifact against this run's seed and config and continues from its
// cursor.
func runHostFaultResumable(seed uint64, cfg chaos.CampaignConfig, every int, path, resumeFrom string) ([]experiments.SchemeResult, error) {
	schemes := experiments.HostFaultSchemes(cfg)
	print := configFingerprint(schemes)

	art := &campaignArtifact{Version: artifactVersion, Seed: seed, Config: print}
	for _, s := range schemes {
		trials := s.Cfg.Trials
		if trials <= 0 {
			trials = 1
		}
		art.Schemes = append(art.Schemes, schemeArtifact{Label: s.Label, Trials: trials})
	}
	if resumeFrom != "" {
		prior, err := loadArtifact(resumeFrom)
		if err != nil {
			return nil, err
		}
		if prior.Seed != seed {
			return nil, fmt.Errorf("artifact %s: seed %d, this run uses %d", resumeFrom, prior.Seed, seed)
		}
		if prior.Config != print {
			return nil, fmt.Errorf("artifact %s: campaign config differs from this run; refusing to splice", resumeFrom)
		}
		if len(prior.Schemes) != len(art.Schemes) {
			return nil, fmt.Errorf("artifact %s: %d schemes, this run plans %d", resumeFrom, len(prior.Schemes), len(art.Schemes))
		}
		for i := range art.Schemes {
			p := prior.Schemes[i] // same config ⇒ same scheme list
			if len(p.Done) > art.Schemes[i].Trials {
				return nil, fmt.Errorf("artifact %s: scheme %s has %d done of %d planned", resumeFrom, p.Label, len(p.Done), art.Schemes[i].Trials)
			}
			art.Schemes[i].Done = p.Done
			fmt.Printf("resume: %s at trial %d/%d\n", p.Label, len(p.Done), art.Schemes[i].Trials)
		}
		if path == "" {
			path = resumeFrom
		}
	}

	completed := 0
	checkpoint := func(force bool) error {
		if path == "" || (!force && (every <= 0 || completed%every != 0)) {
			return nil
		}
		return writeArtifact(path, art)
	}
	for si, s := range schemes {
		sa := &art.Schemes[si]
		for i := len(sa.Done); i < sa.Trials; i++ {
			tr, err := chaos.RunTrial(seed, i, s.Cfg.Mode, s.Cfg.Trial)
			if err != nil {
				return nil, err
			}
			sa.Done = append(sa.Done, tr)
			completed++
			if err := checkpoint(false); err != nil {
				return nil, err
			}
		}
	}
	if err := checkpoint(true); err != nil {
		return nil, err
	}

	results := make([]experiments.SchemeResult, 0, len(schemes))
	for si, s := range schemes {
		campaign := chaos.AssembleCampaign(seed, s.Cfg.Mode, art.Schemes[si].Done)
		results = append(results, experiments.SchemeResult{Label: s.Label, Campaign: campaign})
	}
	return results, nil
}
