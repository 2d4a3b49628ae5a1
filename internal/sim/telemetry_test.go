package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dora/internal/corun"
	"dora/internal/governor"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/webgen"
)

// TestLoadPageTelemetryWiring drives one instrumented load end-to-end
// and checks every telemetry surface: the decision log carries the
// governor's model inputs, the Chrome trace round-trips as JSON with
// governor and DVFS spans, the sink saw per-slice samples, and the
// registry accumulated run metrics.
func TestLoadPageTelemetryWiring(t *testing.T) {
	cfg := soc.NexusFive()
	spec, err := webgen.ByName("Reddit")
	if err != nil {
		t.Fatal(err)
	}
	k, err := corun.Representative(corun.High)
	if err != nil {
		t.Fatal(err)
	}

	sink := telemetry.NewSink(telemetry.SinkOptions{})
	samples := 0
	sink.Subscribe(func(telemetry.Sample) { samples++ })
	tr := telemetry.NewTracer()
	dl := telemetry.NewDecisionLog()

	res, err := LoadPage(Options{
		SoC:       cfg,
		Governor:  governor.NewInteractive(governor.DefaultInteractiveConfig()),
		Seed:      1,
		Sink:      sink,
		Tracer:    tr,
		Decisions: dl,
	}, Workload{Page: spec, CoRun: &k})
	if err != nil {
		t.Fatal(err)
	}

	// Sink: one sample per simulated millisecond including warmup.
	wantSamples := int((500*time.Millisecond + res.LoadTime) / time.Millisecond)
	if samples < wantSamples-2 || samples > wantSamples+2 {
		t.Errorf("sink samples = %d, want ~%d", samples, wantSamples)
	}

	// Decision log: records exist and carry live model inputs.
	if dl.Len() == 0 {
		t.Fatal("decision log empty")
	}
	recs := dl.Records()
	var sawMPKI, sawUtil, sawChosen bool
	for _, d := range recs {
		if d.Governor != "interactive" {
			t.Fatalf("decision governor = %q", d.Governor)
		}
		if d.TempC <= 0 {
			t.Fatalf("decision without temperature: %+v", d)
		}
		if d.MPKI > 0 {
			sawMPKI = true
		}
		if d.CoRunUtil > 0 {
			sawUtil = true
		}
		if d.ChosenMHz != d.CurMHz {
			sawChosen = true
		}
	}
	if !sawMPKI || !sawUtil || !sawChosen {
		t.Fatalf("decision log never saw MPKI/util/frequency change: mpki=%v util=%v chosen=%v",
			sawMPKI, sawUtil, sawChosen)
	}

	// Trace: valid JSON, monotone timestamps, expected span categories.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Cat  string             `json:"cat"`
			Ph   string             `json:"ph"`
			Ts   int64              `json:"ts"`
			Dur  int64              `json:"dur"`
			Args map[string]float64 `json:"-"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	lastTs := int64(-1)
	for _, e := range doc.TraceEvents {
		cats[e.Cat]++
		if e.Ph == "M" {
			continue
		}
		if e.Ts < lastTs {
			t.Fatalf("trace timestamps not monotone: %d after %d", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
	for _, want := range []string{"governor", "dvfs", "segment", "run"} {
		if cats[want] == 0 {
			t.Errorf("trace has no %q events (cats: %v)", want, cats)
		}
	}
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, e.Name)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "decide:interactive") {
		t.Error("trace missing governor decision spans")
	}
	if !strings.Contains(joined, "dvfs:") {
		t.Error("trace missing DVFS transition spans")
	}
	if !strings.Contains(joined, "load:Reddit") {
		t.Error("trace missing page-load run span")
	}

	// Counts: the decision count matches the log and its recorded
	// value, and publishing the run adds one load with those
	// decisions.
	const wantDecisions = 127
	if got := res.Counts.Decisions; got != uint64(dl.Len()) || got != wantDecisions {
		t.Errorf("decisions = %d, log has %d, want %d", got, dl.Len(), wantDecisions)
	}
	reg := telemetry.NewRegistry()
	res.Publish(reg)
	if got := reg.Counter("dora_governor_decisions_total", "").Value(); got != wantDecisions {
		t.Errorf("decisions counter = %d, want %d", got, wantDecisions)
	}
	if got := reg.Counter("dora_page_loads_total", "").Value(); got != 1 {
		t.Errorf("page loads counter = %d", got)
	}
}

// TestLoadPageTelemetryNilSafe: a run with every telemetry option unset
// must behave identically to the seed path.
func TestLoadPageTelemetryNilSafe(t *testing.T) {
	cfg := soc.NexusFive()
	spec, err := webgen.ByName("Alipay")
	if err != nil {
		t.Fatal(err)
	}
	gov, err := cfg.OPPs.ByFreq(1497)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadPage(Options{SoC: cfg, Governor: governor.NewFixed(gov), Seed: 1}, Workload{Page: spec})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := LoadPage(Options{
		SoC: cfg, Governor: governor.NewFixed(gov), Seed: 1,
		Sink:      telemetry.NewSink(telemetry.SinkOptions{}),
		Tracer:    telemetry.NewTracer(),
		Decisions: telemetry.NewDecisionLog(),
	}, Workload{Page: spec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.LoadTime != wired.LoadTime || plain.EnergyJ != wired.EnergyJ {
		t.Fatalf("telemetry changed the simulation: %v/%v vs %v/%v",
			plain.LoadTime, plain.EnergyJ, wired.LoadTime, wired.EnergyJ)
	}
}
