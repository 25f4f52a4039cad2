package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/load"
	"dex/internal/serve"
)

// tally accumulates everything one pass observes: operation counts, check
// failures, the virtual outputs behind sim_digest, the layer counters of
// every program run, and (in a traced pass) host time per layer call.
type tally struct {
	ops, failed int
	problems    []string

	// virt holds the virtual elapsed time, in ms, of every program run
	// that completed.
	virt []float64
	// out is the canonical text of every virtual output; sim_digest
	// hashes it.
	out bytes.Buffer
	// n sums counters by metric name; names starting with "_" are the
	// numerators and denominators of ratio metrics.
	n map[string]float64

	appHost map[string]time.Duration
	appVirt map[string][]float64

	// Serving: the ladder steps, and the top step's latency and goodput.
	steps    []ladderStep
	p50, p99 time.Duration
	goodput  float64

	// Host time of calls into the layers, from the tracer's spans (zero
	// in untraced passes).
	programHost  time.Duration
	scheduleHost time.Duration
	traceWrite   time.Duration
	metricsWrite time.Duration
}

type ladderStep struct {
	r          float64
	host       time.Duration
	p99        time.Duration
	shedQueue  int
	offeredRPS float64
}

func newTally() *tally {
	return &tally{
		n:       make(map[string]float64),
		appHost: make(map[string]time.Duration),
		appVirt: make(map[string][]float64),
	}
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) digestError(label string, err error) {
	fmt.Fprintf(&t.out, "%s error %v\n", label, err)
}

// digest is the hex SHA-256 of every virtual output of the pass.
func (t *tally) digest() string {
	sum := sha256.Sum256(t.out.Bytes())
	return hex.EncodeToString(sum[:16])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addApp records one completed application run.
func (t *tally) addApp(name string, res apps.Result, host time.Duration) {
	t.virt = append(t.virt, ms(res.Elapsed))
	t.appVirt[name] = append(t.appVirt[name], ms(res.Elapsed))
	t.appHost[name] += host
	t.programHost += host
	fmt.Fprintf(&t.out, "%s elapsed=%d check=%q\n", name, res.Elapsed, res.Check)
	t.addReport(res.Report)
}

// addServe records one completed serving run.
func (t *tally) addServe(label string, rep serve.Report, host time.Duration) {
	t.virt = append(t.virt, ms(rep.Elapsed))
	t.programHost += host
	t.n["serve.restarts"] += float64(rep.Restarts)
	t.n["serve.republishes"] += float64(rep.Republishes)
	t.n["serve.shed_429"] += float64(rep.Total.Shed429)
	fmt.Fprintf(&t.out, "%s %s elapsed=%d restarts=%d republishes=%d reacks=%d\n",
		label, rep.Digest(), rep.Elapsed, rep.Restarts, rep.Republishes, rep.Reacks)
	for _, ts := range append(rep.Tenants, rep.Total) {
		fmt.Fprintf(&t.out, "  %+v\n", ts)
	}
	t.addReport(rep.Dex)
}

// checkServe verifies a serving report's request accounting: every
// scheduled request is offered, each offered request is admitted, refused
// by quota or shed by a full queue, and every admitted one is served.
func (t *tally) checkServe(label string, rep serve.Report, sched [][]load.Request) {
	if sched != nil && len(sched) != len(rep.Tenants) {
		t.problem("%s: %d tenants reported, %d scheduled", label, len(rep.Tenants), len(sched))
		return
	}
	for i, ts := range append(rep.Tenants, rep.Total) {
		if sched != nil && i < len(sched) && ts.Offered != len(sched[i]) {
			t.problem("%s %s: offered %d, scheduled %d", label, ts.Name, ts.Offered, len(sched[i]))
		}
		if ts.Offered != ts.Admitted+ts.Shed429+ts.ShedQueue {
			t.problem("%s %s: offered %d != admitted %d + 429 %d + queue %d", label, ts.Name, ts.Offered, ts.Admitted, ts.Shed429, ts.ShedQueue)
		}
		if ts.Served != ts.Admitted {
			t.problem("%s %s: served %d != admitted %d", label, ts.Name, ts.Served, ts.Admitted)
		}
	}
}

// addReport sums one cluster report into the layer counters and the digest.
func (t *tally) addReport(r dex.Report) {
	fmt.Fprintf(&t.out, "  elapsed=%d dsm=%+v net=%+v tlb=%+v tlbnode=%+v frames=%d/%d migrations=%d records=%+v vma=%d deleg=%d threads=%d resident=%v sched=%+v\n",
		r.Elapsed, r.DSM, r.Net, r.TLB, r.TLBPerNode, r.FramesRecycled, r.FrameAllocs, r.Migrations,
		r.MigrationRecords, r.VMAQueries, r.Delegations, r.Threads, r.ResidentPages, r.Sched)
	add := func(name string, v uint64) { t.n[name] += float64(v) }
	add("sim.events", r.Sched.Events)
	add("_sim.windows", r.Sched.Windows)
	add("_sim.serialized_windows", r.Sched.SerializedWindows)

	add("dsm.faults", r.DSM.Faults())
	add("dsm.follower_joins", r.DSM.FollowerJoins)
	add("dsm.invalidations", r.DSM.Invalidations)
	add("dsm.nacks", r.DSM.Nacks)
	add("dsm.retransmits", r.DSM.Retransmits)
	add("dsm.dups_ignored", r.DSM.DupsIgnored)
	add("dsm.forwards", r.DSM.Forwards)
	add("dsm.dir_rebuilt", r.DSM.DirRebuilt)
	add("_dsm.fault_latency_ns", uint64(r.DSM.TotalLatency))
	add("_dsm.dir_serves", r.DSM.DirServes)
	add("_dsm.origin_serves", r.DSM.OriginServes)

	add("fabric.small_msgs", r.Net.SmallSends)
	add("fabric.page_sends", r.Net.PageSends)
	add("fabric.bytes", r.Net.SmallBytes+r.Net.PageBytes)
	add("fabric.rdma_writes", r.Net.RDMAWrites)

	add("core.migrations", uint64(r.Migrations))
	add("core.delegations", r.Delegations)
	add("core.vma_queries", r.VMAQueries)
	add("_core.tlb_hits", r.TLB.Hits)
	add("_core.tlb_misses", r.TLB.Misses)
	add("_core.frames_recycled", r.FramesRecycled)
	add("_core.frame_allocs", r.FrameAllocs)

	if c := r.Chaos; c != nil {
		fmt.Fprintf(&t.out, "  chaos=%+v\n", *c)
		add("core.threads_restarted", uint64(c.ThreadsRestarted))
		add("core.pages_restored", uint64(c.PagesRestored))
		add("core.lease_suspects", c.LeaseSuspects)
		add("chaos.dropped", c.Injected.Dropped)
		add("chaos.duplicated", c.Injected.Duplicated)
		add("chaos.delayed", c.Injected.Delayed)
	}
}

// exportRecorder exports a cell's recorder the way a user of dexrun -trace
// -metrics would, to a counting sink, and records the obs layer's output
// size and host cost.
func (t *tally) exportRecorder(tr *tracer, label string, rec *dex.Recorder) {
	id := tr.begin("obs", "Recorder.Spans "+label)
	spans := len(rec.Spans())
	tr.end(id)
	var sink countingWriter
	id = tr.begin("obs", "Recorder.WriteTrace "+label)
	err := rec.WriteTrace(&sink)
	t.traceWrite += tr.end(id)
	if err != nil {
		t.problem("%s: WriteTrace: %v", label, err)
	}
	var msink countingWriter
	id = tr.begin("obs", "Recorder.WriteMetrics "+label)
	err = rec.WriteMetrics(&msink)
	t.metricsWrite += tr.end(id)
	if err != nil {
		t.problem("%s: WriteMetrics: %v", label, err)
	}
	t.n["obs.spans"] += float64(spans)
	t.n["obs.trace_bytes"] += float64(sink.n)
	fmt.Fprintf(&t.out, "%s obs spans=%d trace=%dB metrics=%dB\n", label, spans, sink.n, msink.n)
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// virtualMetrics derives the per-layer metrics that come from simulated
// outputs. They repeat exactly for a seed. known, if not nil, is a replay of
// known defects (see chaosCampaign.knownDefects): its operations and failed cells count
// in ops_failed_share and chaos.cells_failed; its layer counters are left
// out, so the rest describe one pass.
func (t *tally) virtualMetrics(known *tally) map[string]float64 {
	m := make(map[string]float64)
	for name, v := range t.n {
		if name[0] != '_' {
			m[name] = v
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	n := t.n
	m["sim.events_per_window"] = ratio(n["sim.events"], n["_sim.windows"])
	m["sim.serialized_window_share"] = ratio(n["_sim.serialized_windows"], n["_sim.windows"])
	m["dsm.coalesce_ratio"] = ratio(n["dsm.follower_joins"], n["dsm.faults"]+n["dsm.follower_joins"])
	m["dsm.fault_virt_us"] = ratio(n["_dsm.fault_latency_ns"]/1e3, n["dsm.faults"])
	m["dsm.origin_serve_share"] = ratio(n["_dsm.origin_serves"], n["_dsm.dir_serves"])
	m["fabric.msgs_per_fault"] = ratio(n["fabric.small_msgs"]+n["fabric.page_sends"], n["dsm.faults"])
	m["core.tlb_hit_rate"] = ratio(n["_core.tlb_hits"], n["_core.tlb_hits"]+n["_core.tlb_misses"])
	m["core.frame_recycle_share"] = ratio(n["_core.frames_recycled"], n["_core.frames_recycled"]+n["_core.frame_allocs"])
	ops, failed := t.ops, t.failed
	if known != nil {
		ops += known.ops
		failed += known.failed
		m["chaos.cells_failed"] += known.n["chaos.cells_failed"]
	}
	m["ops_failed_share"] = ratio(float64(failed), float64(ops))

	for _, app := range apps.All() {
		m["apps.virt_ms."+app.Name] = mean(t.appVirt[app.Name])
	}
	// Gateways publish each request at its scheduled virtual arrival, so
	// the generator is never late; the zero is stated, not measured.
	m["load.generator_lag_us"] = 0
	for _, s := range t.steps {
		l := stepLabel(s.r)
		m["serve.p99_us."+l] = float64(s.p99) / 1e3
		m["serve.shed_queue."+l] = float64(s.shedQueue)
		if s.p99 <= time.Millisecond && s.shedQueue == 0 {
			m["serve_max_rps"] = max(m["serve_max_rps"], s.offeredRPS)
		}
	}
	m["serve_p50_us"] = float64(t.p50) / 1e3
	m["serve_p99_us"] = float64(t.p99) / 1e3
	m["serve.goodput_rps"] = t.goodput
	return m
}

// hostMetrics derives the per-layer metrics that come from the tracer's
// spans around the benchmark's calls.
func (t *tally) hostMetrics() map[string]float64 {
	m := make(map[string]float64)
	for _, app := range apps.All() {
		m["apps.run_s."+app.Name] = t.appHost[app.Name].Seconds()
	}
	for _, s := range t.steps {
		m["serve.run_s."+stepLabel(s.r)] = s.host.Seconds()
	}
	if ev := t.n["sim.events"]; ev > 0 {
		m["sim.host_ns_per_event"] = float64(t.programHost) / ev
	}
	m["load.schedule_ms"] = ms(t.scheduleHost)
	m["obs.write_trace_ms"] = ms(t.traceWrite)
	m["obs.write_metrics_ms"] = ms(t.metricsWrite)
	return m
}

// summary is the human-readable outcome of the pass.
func (t *tally) summary() []string {
	lines := []string{fmt.Sprintf("per pass: ops=%d failed=%d programs_completed=%d", t.ops, t.failed, len(t.virt))}
	if c := t.n["chaos.cells_failed"]; c > 0 {
		lines = append(lines, fmt.Sprintf("chaos: %.0f cells failed, %.0f of them by exhausting the event budget", c, t.n["_chaos.cells_budget"]))
	}
	if len(t.steps) > 0 {
		line := "serve ladder p99_us/shed_queue:"
		for _, s := range t.steps {
			line += fmt.Sprintf(" %s=%.1f/%d", stepLabel(s.r), float64(s.p99)/1e3, s.shedQueue)
		}
		lines = append(lines, line, "serve: generator lateness 0 (arrivals follow the virtual-time schedule)")
	}
	return lines
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
