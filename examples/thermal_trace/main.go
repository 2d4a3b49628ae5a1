// Thermal/leakage observability (the paper's Figure 10 territory):
// load a page back-to-back at a high fixed frequency under room and
// cold ambient temperatures, using a per-millisecond telemetry sink to
// watch frequency, power, temperature and bus utilization evolve —
// and show how ambient temperature changes device power via leakage.
package main

import (
	"fmt"
	"log"

	"dora"
	"dora/internal/tablefmt"
)

func main() {
	log.SetFlags(0)
	dev := dora.DefaultDevice()

	run := func(label string, ambient float64) (avgPower, maxTemp float64) {
		var samples []dora.Sample
		sink := dora.NewSink(dora.SinkOptions{})
		sink.Subscribe(func(s dora.Sample) { samples = append(samples, s) })
		res, err := dora.LoadPage(dora.LoadOptions{
			Device:   dev,
			Governor: dora.NewFixed(dev, 1958),
			Page:     "Amazon",
			CoRunner: "bfs",
			Seed:     2,
			AmbientC: ambient,
			Sink:     sink,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s load %6.3f s  energy %5.2f J  avg %4.2f W  peak SoC %5.1f degC\n",
			label, res.LoadTime.Seconds(), res.EnergyJ, res.AvgPowerW, res.MaxSoCTempC)

		// Print a decimated trace: one sample every 200 ms.
		t := tablefmt.New(fmt.Sprintf("Trace (%s)", label),
			"t_s", "freq_mhz", "power_w", "soc_temp_c", "leakage_w", "bus_util")
		for i, s := range samples {
			if i%200 != 0 {
				continue
			}
			t.AddRow(fmt.Sprintf("%.1f", s.Now.Seconds()), s.FreqMHz, s.PowerW, s.SoCTempC, s.LeakageW, s.BusUtil)
		}
		fmt.Println(t.String())
		return res.AvgPowerW, res.MaxSoCTempC
	}

	roomP, _ := run("room (25 C)", 25)
	coldP, _ := run("cold (10 C)", 10)
	fmt.Printf("leakage effect: cold ambient saves %.1f%% device power at 1.958 GHz\n",
		(1-coldP/roomP)*100)
	fmt.Println("(the paper's Fig. 10b: power rises with temperature, shifting f_opt down)")
}
