package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the result must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// fails on a schema or output-check error, never on timing.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl.Name, seed: 3, seconds: 0.3, trace: traced, work: t.TempDir(),
				commit: "test", poolSize: 4096, passDiv: 138}
			var out bytes.Buffer
			if err := runAndReport(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl.Name, traced, err)
			}
			// Failed operations are only the known fault's, each printed.
			known := uint64(strings.Count(out.String(), "FAILED OPERATION (known fault)"))
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != known {
				t.Errorf("%s trace=%v: correct/attempted/failed %v/%v/%v\n%s", wl.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
