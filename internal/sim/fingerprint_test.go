package sim

import (
	"testing"

	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/soc"
)

// goldenCampaignFingerprint was recorded against the pre-optimization
// simulator (PR 2 head) and must never change: the fast quantum loop,
// flat cache geometry, and batched reference generation are required to
// produce byte-identical observables. If an intentional *modeling*
// change moves this value, re-record it in the same commit and say so
// in the commit message; a performance change must not move it.
const goldenCampaignFingerprint = "6fb861cb938de3ecd7315541f893384f09ce8b43fd1d15996eba12489b13049c"

func TestCampaignFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short")
	}
	got, err := CampaignFingerprint(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign fingerprint: %s", got)
	if got != goldenCampaignFingerprint {
		t.Fatalf("campaign fingerprint drifted:\n got  %s\n want %s\nobservables are no longer bit-identical to the golden simulator", got, goldenCampaignFingerprint)
	}
}

// TestCampaignFingerprintSeedSensitivity guards against the fingerprint
// degenerating into a constant (e.g. hashing zero-valued results): a
// different seed must produce a different fingerprint.
func TestCampaignFingerprintSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short")
	}
	a, err := CampaignFingerprint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CampaignFingerprint(2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("fingerprint insensitive to seed: %s", a)
	}
}

// goldenSampledCampaignFingerprint pins the sampled-fidelity driver and
// the machine's fast-forward path bit for bit: the same campaign as
// the exact golden, run at fidelity.Sampled with one checkpoint store
// shared across the cells, so phase detection, extrapolation and
// warm-state restore are all on the pinned path. Like the exact value,
// a performance or refactoring change must not move it.
const goldenSampledCampaignFingerprint = "470415fcb4873d6e28d0152edddb8636f28283bc3c77f1053a79d2f823f6566c"

func TestSampledCampaignFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short")
	}
	ckpts := NewCheckpointStore()
	got, err := CampaignFingerprintVia(1, func(cfg soc.Config, page, kern string, seed int64) (Result, error) {
		return LoadPage(Options{
			SoC:         cfg,
			Governor:    governor.NewInteractive(governor.DefaultInteractiveConfig()),
			Seed:        seed,
			Fidelity:    fidelity.Sampled,
			Checkpoints: ckpts,
		}, fidelityWorkload(t, page, kern))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sampled campaign fingerprint: %s", got)
	if ckpts.Len() == 0 {
		t.Error("no warm checkpoint stored: the restore path is not pinned")
	}
	if got != goldenSampledCampaignFingerprint {
		t.Fatalf("sampled campaign fingerprint drifted:\n got  %s\n want %s\nsampled observables are no longer bit-identical", got, goldenSampledCampaignFingerprint)
	}
}
