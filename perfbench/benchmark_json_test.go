package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json lists exactly the
// workloads not kept for runs by hand, and the metrics, with units, that the
// benchmark reports.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		if !w.byHand {
			names = append(names, w.name)
		}
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark %v", specNames, names)
	}

	var e2e []entry
	for name, m := range endToEnd(&tally{attempted: 1, cpuNS: 1}, workloads[0], 1) {
		e2e = append(e2e, entry{name, m.Unit})
	}
	byName := func(es []entry) []entry {
		sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
		return es
	}
	if got, want := byName(spec.EndToEnd), byName(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the benchmark reports %v", got, want)
	}
	var layers []entry
	for _, lu := range layerUnits {
		layers = append(layers, entry{lu.name, lu.unit})
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the benchmark reports %v", spec.PerLayer, layers)
	}
}
