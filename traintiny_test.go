package dora

import (
	"dora/internal/corun"
	"dora/internal/train"
)

// trainTiny fits models on a minimal measurement grid, for API tests.
func trainTiny() (*Models, TrainReport, error) {
	cfg := train.Config{
		SoC:         DefaultDevice(),
		Seed:        5,
		Pages:       []string{"Alipay", "MSN", "Hao123"},
		Intensities: []corun.Intensity{corun.None, corun.High},
		FreqsMHz:    []int{652, 729, 960, 1190, 1497, 1728, 1958, 2265},
	}
	obs, err := train.Campaign(cfg)
	if err != nil {
		return nil, TrainReport{}, err
	}
	t, err := train.FitObservations(train.Options{Device: cfg.SoC}, obs)
	return t.Models, t.Report, err
}
