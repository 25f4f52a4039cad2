package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dex/internal/apps"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// selfTimeLayers are the layers the benchmark's spans cover: "bench" is the
// benchmark's own code between calls.
var selfTimeLayers = []string{"apps", "serve", "load", "chaos", "obs", "bench"}

// perLayerDefs lists the per-layer metrics in output order. Every workload
// prints all of them; a metric of a layer the workload does not run is 0.
func perLayerDefs() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{name, unit, better}) }
	for _, app := range apps.All() {
		add("apps.run_s."+app.Name, "s", "lower")
	}
	for _, app := range apps.All() {
		add("apps.virt_ms."+app.Name, "ms", "lower")
	}
	add("sim.events", "count", "lower")
	add("sim.events_per_window", "count", "higher")
	add("sim.serialized_window_share", "ratio", "lower")
	add("sim.host_ns_per_event", "ns", "lower")
	add("sim.dispatch_ns", "ns", "lower")
	add("sim.switch_ns", "ns", "lower")
	for _, name := range []string{"faults", "follower_joins"} {
		add("dsm."+name, "count", "lower")
	}
	add("dsm.coalesce_ratio", "ratio", "higher")
	for _, name := range []string{"invalidations", "nacks"} {
		add("dsm."+name, "count", "lower")
	}
	add("dsm.fault_virt_us", "us", "lower")
	for _, name := range []string{"retransmits", "dups_ignored"} {
		add("dsm."+name, "count", "lower")
	}
	add("dsm.origin_serve_share", "ratio", "lower")
	for _, name := range []string{"forwards", "dir_rebuilt"} {
		add("dsm."+name, "count", "lower")
	}
	add("dsm.fault_fast_ns", "ns", "lower")
	add("dsm.fault_slow_ns", "ns", "lower")
	add("fabric.small_msgs", "count", "lower")
	add("fabric.page_sends", "count", "lower")
	add("fabric.bytes", "B", "lower")
	add("fabric.rdma_writes", "count", "lower")
	add("fabric.msgs_per_fault", "count", "lower")
	for _, name := range []string{"migrations", "delegations", "vma_queries"} {
		add("core."+name, "count", "lower")
	}
	add("core.tlb_hit_rate", "ratio", "higher")
	add("core.frame_recycle_share", "ratio", "higher")
	for _, name := range []string{"threads_restarted", "pages_restored", "lease_suspects"} {
		add("core."+name, "count", "lower")
	}
	for _, name := range []string{"dropped", "duplicated", "delayed", "cells_failed", "max_cell_events"} {
		add("chaos."+name, "count", "lower")
	}
	add("obs.spans", "count", "lower")
	add("obs.trace_bytes", "B", "lower")
	add("obs.write_trace_ms", "ms", "lower")
	add("obs.write_metrics_ms", "ms", "lower")
	add("obs.overhead_ratio", "ratio", "lower")
	add("load.requests", "count", "higher")
	add("load.schedule_ms", "ms", "lower")
	add("load.generator_lag_us", "us", "lower")
	for _, r := range ladder {
		add("serve.run_s."+stepLabel(r), "s", "lower")
	}
	for _, r := range ladder {
		add("serve.p99_us."+stepLabel(r), "us", "lower")
	}
	for _, r := range ladder {
		add("serve.shed_queue."+stepLabel(r), "count", "lower")
	}
	add("serve.goodput_rps", "req/s", "higher")
	add("serve.shed_429", "count", "lower")
	add("serve.restarts", "count", "lower")
	add("serve.republishes", "count", "lower")
	add("serve_p50_us", "us", "lower")
	add("serve_p99_us", "us", "lower")
	add("serve_max_rps", "req/s", "higher")
	add("ops_failed_share", "ratio", "lower")
	add("go.alloc_mb", "MB", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_pause_ms", "ms", "lower")
	add("go.leaked_goroutines", "count", "lower")
	add("go.retained_mb", "MB", "lower")
	add("trace_overhead_ratio", "ratio", "lower")
	for _, mod := range cpuModules {
		better := "lower"
		if mod == "apps" {
			better = "higher"
		}
		add("cpu_share."+mod, "ratio", better)
	}
	for _, layer := range selfTimeLayers {
		add(layer+".self_s", "s", "lower")
	}
	return d
}

// tracedRun measures the per-layer metrics from four kinds of pass, in
// this order: an untraced pass gives every simulated counter and the Go
// runtime's allocation, GC and leak counts; a workload with recorders runs
// a pass without them, the base of obs.overhead_ratio; a traced pass (spans
// around the layer calls plus a CPU profile of this process) gives host time
// per layer and its CPU split; a second untraced pass lets both overhead
// ratios compare against the mean of a cold and a warm pass. Right after
// the first pass, the chaos campaign replays the cells it keeps out of its
// passes because they fail through known defects. Then the unit-cost probes
// run.
func tracedRun(w workloadEntry, sc scale, o options) (result, error) {
	wl := w.build(sc, o.seed)

	runtime.GC()
	var before, after, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	base := wl.run(runConfig{recorder: true})
	runtime.ReadMemStats(&after)
	var known *tally
	if c, ok := wl.(*chaosCampaign); ok {
		known = c.knownDefects(runConfig{recorder: true})
	}
	runtime.GC()
	runtime.ReadMemStats(&settled)
	leaked := runtime.NumGoroutine() - goroutines

	var bare pass
	if w.recorded {
		runtime.GC()
		bare = wl.run(runConfig{})
	}

	runtime.GC()
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := wl.run(runConfig{tr: tr, recorder: true})
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	spansPath := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	runtime.GC()
	base2 := wl.run(runConfig{recorder: true})
	untraced := (base.wall.Seconds() + base2.wall.Seconds()) / 2

	m := base.t.virtualMetrics(known)
	for name, v := range traced.t.hostMetrics() {
		m[name] = v
	}
	for name, v := range unitCosts() {
		m[name] = v
	}
	for mod, share := range shares {
		m["cpu_share."+mod] = share
	}
	self := tr.selfTimes()
	for _, layer := range selfTimeLayers {
		m[layer+".self_s"] = self[layer].Seconds()
	}
	m["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	// What a pass leaves behind once collected: goroutines still running
	// and live heap. Runs aborted by the event budget leave their
	// simulation tasks parked, holding the cluster.
	m["go.leaked_goroutines"] = float64(leaked)
	m["go.retained_mb"] = (float64(settled.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	m["trace_overhead_ratio"] = traced.wall.Seconds() / untraced
	if w.recorded {
		m["obs.overhead_ratio"] = untraced / bare.wall.Seconds()
	}

	// The traced pass must reproduce the untraced ones exactly.
	res := combine([]pass{base, traced, base2})
	if known != nil {
		res.ops += known.ops
		res.failed += known.failed
		if len(known.problems) > 0 {
			res.correct = false
			res.problems = append(res.problems, known.problems...)
		}
		res.summary = append(res.summary, fmt.Sprintf("known defects replayed after the first pass: ops=%d failed=%d: %s",
			known.ops, known.failed, strings.ReplaceAll(strings.TrimSpace(known.out.String()), "\n", "; ")))
	}
	for _, def := range perLayerDefs() {
		res.metrics = append(res.metrics, metricValue{def.Name, m[def.Name], def.Unit})
	}
	res.summary = append(res.summary, fmt.Sprintf("untraced_wall_s=%.3f,%.3f traced_wall_s=%.3f spans=%d written to %s",
		base.wall.Seconds(), base2.wall.Seconds(), traced.wall.Seconds(), len(tr.spans), spansPath))
	res.summary = append(res.summary, base.t.summary()...)
	return res, nil
}
