package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type printed struct {
	digest  string
	correct bool
	metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
}

// runCommand runs the built benchmark command in dir and parses its
// sim_digest line and final JSON line.
func runCommand(t *testing.T, exe, dir string, args ...string) printed {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var p printed
	var last struct {
		Correct bool `json:"correct"`
		Metrics json.RawMessage
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	p.correct = last.Correct
	if err := json.Unmarshal(last.Metrics, &p.metrics); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "sim_digest: "); ok {
			p.digest = d
		}
	}
	return p
}

func checkNames(t *testing.T, what string, got printed, want []metricDef) {
	t.Helper()
	if len(got.metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(got.metrics), len(want))
	}
	for _, def := range want {
		m, ok := got.metrics[def.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", what, def.Name)
		} else if m.Unit != def.Unit {
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", what, def.Name, m.Unit, def.Unit)
		}
	}
}

// TestCommand builds the benchmark and runs every workload in its shortened
// configuration: twice untraced and once traced at one seed. The printed
// metric names equal BENCHMARK.json's, every run passes its own checks,
// and the virtual outputs (sim_digest, the virtual geomean) repeat exactly,
// traced or not.
func TestCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	b := readBenchmarkJSON(t)
	exe := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	for _, w := range workloadNames() {
		args := []string{"-workload", w, "-seed", "7", "-short", "-seconds", "0.01"}
		first := runCommand(t, exe, dir, append(args, "-trace", "0")...)
		second := runCommand(t, exe, dir, append(args, "-trace", "0")...)
		traced := runCommand(t, exe, dir, append(args, "-trace", "1")...)
		checkNames(t, w+" -trace 0", first, b.EndToEnd)
		checkNames(t, w+" -trace 1", traced, b.PerLayer)
		for _, p := range []printed{first, second, traced} {
			if !p.correct {
				t.Errorf("%s: result not correct", w)
			}
		}
		if first.digest == "" || first.digest != second.digest || first.digest != traced.digest {
			t.Errorf("%s: sim_digest %q, %q (untraced) and %q (traced) differ", w, first.digest, second.digest, traced.digest)
		}
		if a, b := first.metrics["app_virt_ms_geomean"].Value, second.metrics["app_virt_ms_geomean"].Value; a != b || a == 0 {
			t.Errorf("%s: app_virt_ms_geomean %v then %v", w, a, b)
		}
	}
}

// TestPerLayerDefsMatchBenchmarkJSON pins the per-layer list, units and
// directions the traced run prints to BENCHMARK.json.
func TestPerLayerDefsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	defs := perLayerDefs()
	if len(defs) != len(b.PerLayer) {
		t.Fatalf("perLayerDefs has %d metrics, BENCHMARK.json %d", len(defs), len(b.PerLayer))
	}
	for i := range defs {
		if defs[i] != b.PerLayer[i] {
			t.Errorf("per_layer[%d]: code %+v, BENCHMARK.json %+v", i, defs[i], b.PerLayer[i])
		}
	}
}

// TestBudgetExhaustedCellsFail runs the campaign with an event budget no
// cell can finish in: every cell counts as failed, none aborts the pass,
// and the failures are measured outcomes, not check failures.
func TestBudgetExhaustedCellsFail(t *testing.T) {
	w := newChaosCampaign(scale{chaosSeeds: 1, eventLimit: 2000}, 1)
	p := w.run(runConfig{recorder: true})
	cells := 6
	if p.t.ops != cells || p.t.failed != cells {
		t.Errorf("ops=%d failed=%d, want %d and %d", p.t.ops, p.t.failed, cells, cells)
	}
	if got := p.t.n["_chaos.cells_budget"]; got != float64(cells) {
		t.Errorf("%v cells exhausted the budget, want %d", got, cells)
	}
	if len(p.t.problems) != 0 {
		t.Errorf("budget exhaustion reported as check failures: %v", p.t.problems)
	}
	if got := p.t.virtualMetrics(nil)["ops_failed_share"]; got != 1 {
		t.Errorf("ops_failed_share = %v, want 1", got)
	}
}

// TestKnownDefectsCount checks that a replay of known defects counts in
// the traced run's failed share and failed cells, and nowhere else.
func TestKnownDefectsCount(t *testing.T) {
	pass := newTally()
	pass.ops = 3
	pass.n["obs.spans"] = 10
	known := newTally()
	known.ops, known.failed = 1, 1
	known.n["chaos.cells_failed"] = 1
	known.n["obs.spans"] = 1000
	m := pass.virtualMetrics(known)
	if m["ops_failed_share"] != 0.25 || m["chaos.cells_failed"] != 1 || m["obs.spans"] != 10 {
		t.Errorf("ops_failed_share=%v chaos.cells_failed=%v obs.spans=%v, want 0.25, 1 and 10",
			m["ops_failed_share"], m["chaos.cells_failed"], m["obs.spans"])
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Layer: "apps", Start: 10, End: 60, Parent: 0},
		{Layer: "obs", Start: 20, End: 30, Parent: 1},
		{Layer: "obs", Start: 70, End: 80, Parent: 0},
	}}
	self := tr.selfTimes()
	want := map[string]time.Duration{"bench": 40, "apps": 40, "obs": 20}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("%s self time %v, want %v", layer, self[layer], d)
		}
	}
}

func TestModuleOfSymbol(t *testing.T) {
	for sym, want := range map[string]string{
		"dex/internal/sim.(*Task).yield":                       "sim",
		"dex/internal/sim.(*Mailbox[go.shape.struct {}]).Recv": "sim",
		"dex/internal/mem.(*PageTable).LookupFast":             "core",
		"dex.(*Cluster).Run":                                   "core",
		"dex/internal/apps.kmnReference":                       "apps",
		"dex/internal/textgen.Corpus":                          "apps",
		"main.burn":                                            "bench",
		"dex/perfbench.burn":                                   "bench",
		"runtime.chanrecv":                                     "",
		"math.Sqrt":                                            "",
	} {
		if got := moduleOf(packageOf(sym)); got != want {
			t.Errorf("module of %s = %q, want %q", sym, got, want)
		}
	}
}

var burnSink float64

func burn(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			burnSink += float64(i) * 1.0000001
		}
	}
}

// TestCPUShares profiles CPU time spent in this package and checks that the
// decoder charges it to the benchmark's own module.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %v of a profile spent in burn: %v", shares["bench"], shares)
	}
}
