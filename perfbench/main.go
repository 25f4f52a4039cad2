// Command perfbench is the repository benchmark. One invocation runs one
// named workload, generated from a seed, and prints its metrics by name and
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"wall_s": {"value": 14.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json, taken
// from untraced passes. With -trace 1 they are the per-layer set, taken from
// a traced pass (spans around every call the benchmark makes into a layer,
// plus a CPU profile of this process), the reports of the untraced pass, and
// unit-cost probes of the simulator layers.
//
// Workloads (see workloads.go):
//
//   - paper-suite: the eight §V applications at full size, 4 nodes × 8
//     threads, parallel simulator on 2 cores.
//   - serve-ladder: the 3-tenant serving mix replayed at a fixed ladder of
//     offered rates below saturation, serial simulator.
//   - chaos-traced: a fault campaign of kmn and srv under every coherence
//     protocol, with a recorder attached to each cell; its traced run also
//     replays the cells known to fail through a program defect.
//
// The end-to-end metrics are those every workload has, none of them zero:
// set-up time, the median pass's wall time, its peak RSS, and the
// geometric mean of the virtual elapsed time of every program run that
// completed (an application's region of interest, a serving run, a chaos
// cell). The serving latencies and capacity and the failed-operation share
// exist on only some workloads, so they are per-layer metrics; the result
// line's attempted and failed fields carry the failure count on every run.
// An operation is an application run or chaos cell, or in serve-ladder a
// request; it fails if its program returned an error (an event-budget
// exhaustion included) or, for a request, if a full queue shed it. The
// workloads' passes are chosen so that no operation fails on any seed; the
// known failures show in the traced run. Quota refusals (429) are counted
// separately as serve.shed_429. correct is false
// when an output check fails: a fault-free run erred, request accounting
// does not add up, protocols disagree on a chaos cell's answer, or a pass
// did not reproduce the first pass's virtual outputs.
//
// Two clocks appear in the output. Host metrics (wall_s, setup_s,
// peak_rss_mb, *.run_s, *_ns probes) are wall-clock on the machine that runs
// the benchmark; the host line printed first names it, and numbers from
// different hosts are not comparable. Virtual metrics (app_virt_ms_geomean,
// *.virt_ms, serve latencies, every count) are simulated time and repeat
// exactly for a seed; sim_digest hashes all of them.
//
// Run it through run.py, which builds this package against the surrounding
// source tree:
//
//	python3 perfbench/run.py --workload serve-ladder --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many times a run measures its set-up in fresh
// processes; setup_s is their median.
const setupProbes = 41

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	probe    bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of an untraced run's timed phase in seconds (at least one full pass runs; a traced run makes a fixed set of passes)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	fs.BoolVar(&o.short, "short", false, "run the shortened configuration the self-tests use (test-size inputs)")
	fs.BoolVar(&o.probe, "setup-probe", false, "internal: set up, report the time, exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds %v must be positive", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one invocation and returns the process exit code.
func run(args []string, stdout io.Writer) (int, error) {
	o, err := parseArgs(args)
	if err != nil {
		return 2, err
	}
	entry, _ := workloadByName(o.workload)
	sc := fullScale
	if o.short {
		sc = shortScale
	}
	if o.trace {
		res, err := tracedRun(entry, sc, o)
		if err != nil {
			return 1, err
		}
		printResult(stdout, o, res)
		return 0, nil
	}
	w := entry.build(sc, o.seed)
	if o.probe {
		// Set-up is done: the next statement of a real run is its first
		// timed call.
		fmt.Fprintln(stdout, "ready", time.Now().UnixNano())
		return 0, nil
	}

	res, err := untracedRun(w, o)
	if err != nil {
		return 1, err
	}
	printResult(stdout, o, res)
	return 0, nil
}

// result is what one invocation prints.
type result struct {
	correct  bool
	problems []string
	ops      int
	failed   int
	digest   string
	summary  []string
	metrics  []metricValue
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

// untracedRun measures set-up in fresh processes, then runs passes of the
// workload until the time budget is spent, and reports the end-to-end
// metrics: median pass time, peak memory, set-up time, and the virtual
// geomean.
func untracedRun(w workload, o options) (result, error) {
	setup, err := measureSetup(o)
	if err != nil {
		return result{}, err
	}
	passes := timedPhase(w, o)
	res := combine(passes)
	walls := make([]float64, len(passes))
	peaks := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
		peaks[i] = p.peakMB
	}
	first := passes[0]
	res.metrics = []metricValue{
		{"setup_s", setup, "s"},
		{"wall_s", median(walls), "s"},
		{"peak_rss_mb", first.peakMB, "MB"},
		{"app_virt_ms_geomean", geomean(first.t.virt), "ms"},
	}
	res.summary = append(res.summary, fmt.Sprintf("passes=%d pass_wall_s=%s peak_rss_mb_after_pass=%s", len(passes), formatFloats(walls), formatFloats(peaks)))
	res.summary = append(res.summary, first.t.summary()...)
	return res, nil
}

// timedPhase runs whole passes while the next one is expected to end within
// the budget; the first pass always runs. Collection between passes is kept
// out of the timed region. peak_rss_mb is the peak after the first pass, a
// fixed amount of work; the peaks after later passes are printed, so memory
// a pass leaves behind shows as growth.
func timedPhase(w workload, o options) []pass {
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var passes []pass
	for {
		runtime.GC()
		p := w.run(runConfig{recorder: true})
		p.peakMB = peakRSSMB()
		passes = append(passes, p)
		if time.Since(start)+p.wall > budget {
			return passes
		}
	}
}

// combine folds the passes of one run into the printed counts and checks
// that every pass reproduced the first one's virtual outputs exactly.
func combine(passes []pass) result {
	res := result{correct: true, digest: passes[0].t.digest()}
	for i, p := range passes {
		res.ops += p.t.ops
		res.failed += p.t.failed
		if len(p.t.problems) > 0 {
			res.correct = false
			res.problems = append(res.problems, p.t.problems...)
		}
		if d := p.t.digest(); d != res.digest {
			res.correct = false
			res.problems = append(res.problems, fmt.Sprintf("pass %d sim_digest %s differs from pass 0 (%s)", i, d, res.digest))
		}
	}
	return res
}

// measureSetup starts this program setupProbes times in set-up-only mode and
// returns the median time from process start to the point where a real run
// makes its first timed call.
func measureSetup(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-setup-probe"}
	if o.short {
		args = append(args, "-short")
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		var ready int64
		if _, err := fmt.Sscanf(line, "ready %d", &ready); err != nil {
			return 0, fmt.Errorf("setup probe printed %q (%v): %w", line, readErr, err)
		}
		times = append(times, time.Duration(ready-start.UnixNano()).Seconds())
	}
	return median(times), nil
}

// peakRSSMB reads the peak resident set size (VmHWM) of this process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func printResult(stdout io.Writer, o options, res result) {
	host, _ := json.Marshal(hostStamp(o))
	fmt.Fprintf(stdout, "host: %s\n", host)
	for _, s := range res.summary {
		fmt.Fprintln(stdout, s)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	fmt.Fprintf(stdout, "sim_digest: %s %s\n", o.workload, res.digest)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.ops, res.failed, metrics})
	fmt.Fprintln(stdout, string(line))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, ",")
}
