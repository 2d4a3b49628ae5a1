package train

import (
	"os"
	"path/filepath"
	"testing"

	"dora/internal/corun"
)

func sampleObs() []Observation {
	return []Observation{
		{
			Page: "MSN", Kernel: "bfs", Intensity: corun.Medium,
			FreqMHz: 1497, BusMHz: 800, VoltV: 0.95,
			X:         []float64{1, 2, 3, 4, 5, 6, 1.497, 800, 1},
			LoadTimeS: 1.62, PowerW: 2.9, AvgTempC: 40, Met3s: true,
		},
		{
			Page: "Hao123", Kernel: "backprop", Intensity: corun.High,
			FreqMHz: 2265, BusMHz: 933, VoltV: 1.16,
			X:         []float64{5, 4, 3, 2, 1, 14, 2.265, 933, 1},
			LoadTimeS: 4.6, PowerW: 4.7, AvgTempC: 44, Met3s: false,
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.json")
	obs := sampleObs()
	if err := SaveObservations(path, obs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadObservations(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(obs) {
		t.Fatalf("loaded %d, want %d", len(back), len(obs))
	}
	for i := range obs {
		if back[i].Page != obs[i].Page || back[i].LoadTimeS != obs[i].LoadTimeS ||
			back[i].Intensity != obs[i].Intensity {
			t.Fatalf("observation %d changed: %+v vs %+v", i, back[i], obs[i])
		}
		for j := range obs[i].X {
			if back[i].X[j] != obs[i].X[j] {
				t.Fatalf("X[%d][%d] changed", i, j)
			}
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"observations":[{"Page":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadObservations(path); err == nil {
		t.Fatal("stale version must be rejected")
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty.json":   `{"version":3,"observations":[]}`,
		"badx.json":    `{"version":3,"observations":[{"Page":"x","X":[1],"LoadTimeS":1,"PowerW":1}]}`,
		"badtime.json": `{"version":3,"observations":[{"Page":"x","X":[1,2,3,4,5,6,7,8,9],"LoadTimeS":0,"PowerW":1}]}`,
		"notjson.json": `garbage`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadObservations(path); err == nil {
			t.Fatalf("%s must be rejected", name)
		}
	}
	if _, err := LoadObservations(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestRoundTripThroughFit(t *testing.T) {
	// A saved-and-reloaded small campaign fits identically.
	obs := smallCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := SaveObservations(path, obs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadObservations(path)
	if err != nil {
		t.Fatal(err)
	}
	static, err := FitStatic(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	m1, r1, err := Fit(obs, static)
	if err != nil {
		t.Fatal(err)
	}
	m2, r2, err := Fit(back, static)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TimeMetrics.MAPE != r2.TimeMetrics.MAPE {
		t.Fatalf("fit changed after round trip: %v vs %v", r1.TimeMetrics.MAPE, r2.TimeMetrics.MAPE)
	}
	_ = m1
	_ = m2
}
