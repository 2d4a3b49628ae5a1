package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the binary prints
// in step with the lists BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list  string
		decls []decl
		units map[string]string
	}{
		{"end_to_end", spec.EndToEnd, endToEndUnits},
		{"per_layer", spec.PerLayer, layerUnits},
	} {
		declared := map[string]string{}
		for _, d := range c.decls {
			declared[d.Name] = d.Unit
			if got, ok := c.units[d.Name]; !ok || got != d.Unit {
				t.Errorf("%s: BENCHMARK.json declares %s in %q, the binary prints %q (present %v)", c.list, d.Name, d.Unit, got, ok)
			}
		}
		for name := range c.units {
			if _, ok := declared[name]; !ok {
				t.Errorf("%s: the binary prints %s, which BENCHMARK.json does not declare", c.list, name)
			}
		}
	}
}
