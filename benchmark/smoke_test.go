package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wise/internal/core"
	"wise/internal/machine"
)

// TestSmokeEveryWorkload runs every workload for under a second against the
// real wise-serve binary on shrunken pools, then one traced run, and checks
// that every answer was right and every BENCHMARK.json metric came out.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts wise-serve")
	}
	ctx := context.Background()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(root, "benchmark", "testdata", "model.json")
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Load(modelPath, machine.Scaled())
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, buildDir: dir, serverBin: bin, modelPath: modelPath, modelRaw: raw, model: model,
		seconds: 700 * time.Millisecond, setups: 1}

	for _, w := range workloads() {
		o, err := runWorkload(ctx, e, shrink(w), 7, false, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !o.Correct || o.Failed > 0 || o.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed: %v", w.name, o.Correct, o.Failed, o.Attempted, o.Errors)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := o.Metrics[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v (present %v), want a positive value", w.name, m.Name, v, ok)
			}
		}
	}

	// ingest-mixed calls every layer.
	tracePath := filepath.Join(dir, "trace.json")
	o, err := runWorkload(ctx, e, shrink(findWorkload("ingest-mixed")), 7, true, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if _, ok := o.Metrics[m.Name]; !ok {
			t.Errorf("traced run has no per-layer %s", m.Name)
		}
	}
	for _, name := range []string{"matrix.parse_us_p50", "kernels.convert_us_p50", "kernels.exec_us_p50",
		"session.getorcreate_us_p50", "serve.encode_us_p50", "kernels.csr_serial_us_p50"} {
		if !(o.Metrics[name] > 0) {
			t.Errorf("%s = %v, want a measured time", name, o.Metrics[name])
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	ops := map[int64]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "op" {
			ops[ev.Args.Op] = true
		}
	}
	calls := 0
	for _, ev := range trace.TraceEvents {
		if ev.Cat != "op" {
			calls++
			if !ops[ev.Args.Op] || ev.Args.Call == "" {
				t.Fatalf("call span %+v is not inside an op span of its op id", ev)
			}
		}
	}
	if len(ops) == 0 || calls == 0 {
		t.Fatalf("trace holds %d op spans and %d call spans", len(ops), calls)
	}
}
