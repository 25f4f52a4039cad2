package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
	"dex/internal/load"
	"dex/internal/serve"
	"dex/internal/sim"
)

// workload is one prepared set of inputs. Building it is the benchmark's
// set-up; run executes one timed pass over it.
type workload interface {
	run(rc runConfig) pass
}

// runConfig selects how a pass is observed: tr records spans around the
// layer calls (nil in untraced passes) and recorder attaches an obs
// recorder to every chaos cell, which is part of the chaos-traced workload.
type runConfig struct {
	tr       *tracer
	recorder bool
}

// pass is the outcome of one timed pass.
type pass struct {
	wall   time.Duration
	peakMB float64 // peak RSS of the process so far, set by timedPhase
	t      *tally
}

// scale sizes the workloads. fullScale is what the benchmark measures;
// shortScale keeps the self-tests fast.
type scale struct {
	appSize    apps.Size
	fullServe  bool
	ladder     []float64
	chaosSeeds int
	eventLimit uint64
}

// ladder is the serve-ladder's multiples of every tenant's rate and quota.
// It stops below saturation: from 1× up, some seeds see a full backend
// queue shed requests (at 1×, seed 29 of 1–40 sheds one), and a shed
// request is a failed operation. Up to 0.9× no seed of 1–40 sheds, while
// p99 already crosses 1 ms on some of them.
var ladder = []float64{0.25, 0.5, 0.75, 0.9}

var (
	fullScale  = scale{appSize: apps.SizeFull, fullServe: true, ladder: ladder, chaosSeeds: 6, eventLimit: 2_000_000}
	shortScale = scale{appSize: apps.SizeTest, fullServe: false, ladder: []float64{0.5, 0.9}, chaosSeeds: 1, eventLimit: 2_000_000}
)

// workloadEntry names a workload and builds it; recorded marks the one
// whose passes attach obs recorders, which the traced run also measures
// without them.
type workloadEntry struct {
	name     string
	build    func(sc scale, seed int64) workload
	recorded bool
}

var workloadTable = []workloadEntry{
	{"paper-suite", newPaperSuite, false},
	{"serve-ladder", newServeLadder, false},
	{"chaos-traced", newChaosCampaign, true},
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadEntry, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workloadEntry{}, false
}

// --- paper-suite -------------------------------------------------------------

// paperSuite runs the paper's eight applications once each, Optimized
// variant, 4 nodes × 8 threads, on the parallel simulator with 2 cores.
type paperSuite struct {
	seed int64
	size apps.Size
	apps []apps.App
}

func newPaperSuite(sc scale, seed int64) workload {
	return &paperSuite{seed: seed, size: sc.appSize, apps: apps.All()}
}

func (w *paperSuite) run(rc runConfig) pass {
	t := newTally()
	start := time.Now()
	root := rc.tr.begin("bench", "pass paper-suite")
	for _, app := range w.apps {
		cfg := apps.Config{
			Nodes:          4,
			ThreadsPerNode: 8,
			Variant:        apps.Optimized,
			Size:           w.size,
			Seed:           w.seed,
			Opts:           []dex.Option{dex.WithCores(2)},
		}
		id := rc.tr.begin("apps", "apps.Run "+app.Name)
		res, err := app.Run(cfg)
		host := rc.tr.end(id)
		t.ops++
		if err != nil {
			t.failed++
			t.problem("%s: %v", app.Name, err)
			t.digestError(app.Name, err)
			continue
		}
		t.addApp(app.Name, res, host)
	}
	rc.tr.end(root)
	return pass{wall: time.Since(start), t: t}
}

// --- serve-ladder ------------------------------------------------------------

// serveLadder replays the default three-tenant serving mix at every ladder
// multiple of the tenants' rates and quotas, on 4 nodes with the serial
// simulator.
type serveLadder struct {
	steps []float64
	specs []load.Spec
}

func newServeLadder(sc scale, seed int64) workload {
	w := &serveLadder{steps: sc.ladder}
	for _, r := range sc.ladder {
		spec := serve.DefaultSpec(3, sc.fullServe, seed)
		for i := range spec.Tenants {
			spec.Tenants[i].RPS *= r
			spec.Tenants[i].LimitRPS *= r
		}
		w.specs = append(w.specs, spec)
	}
	return w
}

func stepLabel(r float64) string { return "x" + strconv.FormatFloat(r, 'f', -1, 64) }

func (w *serveLadder) run(rc runConfig) pass {
	t := newTally()
	start := time.Now()
	root := rc.tr.begin("bench", "pass serve-ladder")
	for i, r := range w.steps {
		label := stepLabel(r)
		spec := w.specs[i]
		id := rc.tr.begin("load", "load.Schedule "+label)
		sched, err := load.Schedule(spec)
		t.scheduleHost += rc.tr.end(id)
		if err != nil {
			t.problem("%s: schedule: %v", label, err)
			continue
		}
		offered := 0
		for _, reqs := range sched {
			offered += len(reqs)
		}
		t.n["load.requests"] += float64(offered)

		id = rc.tr.begin("serve", "serve.Run "+label)
		rep, err := serve.Run(serve.Config{Nodes: 4, Spec: spec})
		host := rc.tr.end(id)
		t.ops += offered
		if err != nil {
			t.failed += offered
			t.problem("%s: %v", label, err)
			t.digestError(label, err)
			continue
		}
		t.failed += rep.Total.ShedQueue
		t.checkServe(label, rep, sched)
		t.addServe(label, rep, host)
		t.steps = append(t.steps, ladderStep{
			r:          r,
			host:       host,
			p99:        rep.Total.P99,
			shedQueue:  rep.Total.ShedQueue,
			offeredRPS: float64(rep.Total.Offered) / spec.Duration.Seconds(),
		})
		if i == len(w.steps)-1 {
			t.p50, t.p99, t.goodput = rep.Total.P50, rep.Total.P99, rep.Total.Goodput
		}
	}
	rc.tr.end(root)
	return pass{wall: time.Since(start), t: t}
}

// --- chaos-traced ------------------------------------------------------------

// chaosCell is one run of the fault campaign.
type chaosCell struct {
	app   string
	proto dex.Protocol
	seed  int64
	plan  []byte
}

func (c chaosCell) label() string { return fmt.Sprintf("%s/%v/seed%d", c.app, c.proto, c.seed) }

// chaosCampaign runs {kmn, srv} × {wi, home, dist} × six cell seeds on 4
// nodes × 4 threads at test size with checkpoint/restart, each cell under
// the same fault mix and event budget.
type chaosCampaign struct {
	cells      []chaosCell
	eventLimit uint64
	kmn        apps.App
}

// failingCellSeeds are the cell seeds of 1–14 at which a cell of the
// campaign fails through a known program defect: dist/srv livelocks and
// exhausts the event budget at every one of them (ROADMAP item 1; of 1–40,
// 18, 20, 21, 28, 30, 31 and 32 too). No other pair fails at a cell seed of
// 1–90.
var failingCellSeeds = []int64{3, 8, 9, 12, 13}

// knownDefectCells fail through a program defect under the campaign's fault
// mix: the dist/srv livelock, and a write-invalidate srv cell whose final
// store misses admitted writes (serve's exactly-once check fails). A failed
// cell is a failed operation, so the campaign draws its cells from seeds
// where no such failure is known, and knownDefects replays these instead.
var knownDefectCells = []chaosCell{
	{app: "srv", proto: dex.DistributedManager, seed: 3, plan: faultPlan(3)},
	{app: "srv", proto: dex.WriteInvalidate, seed: 1846, plan: faultPlan(1846)},
}

// cellSeeds picks n distinct cell seeds from 1–14, minus failingCellSeeds,
// in an order that depends on the workload seed. Six of those nine give 84
// campaigns; the small pool keeps any two of them alike enough that
// workload seeds move the campaign's cost little.
func cellSeeds(seed int64, n int) []int64 {
	var pool []int64
	for s := int64(1); s <= 14; s++ {
		if !slices.Contains(failingCellSeeds, s) {
			pool = append(pool, s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

func newChaosCampaign(sc scale, seed int64) workload {
	kmn, _ := apps.ByName("kmn")
	w := &chaosCampaign{eventLimit: sc.eventLimit, kmn: kmn}
	seeds := cellSeeds(seed, sc.chaosSeeds)
	for _, app := range []string{"kmn", "srv"} {
		for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.HomeMigrate, dex.DistributedManager} {
			for _, s := range seeds {
				w.cells = append(w.cells, chaosCell{app: app, proto: proto, seed: s, plan: faultPlan(s)})
			}
		}
	}
	return w
}

// faultPlan is the campaign's fault mix for one cell: drop 0.2, duplicate
// 0.2, up to 20µs extra delay on half the messages, and the highest node
// crashed at 2ms. The plan seed follows dexchaos (cell seed + 1e6 × drop
// rate), so a cell reproduces with
// `dexchaos -app A -protocol P -seed S -nodes 4 -threads 4 -drops 0.2 -dup 0.2 -delay 20us -crash 2ms -restart`.
func faultPlan(seed int64) []byte {
	plan := chaos.Plan{
		Seed:    seed + 200_000,
		Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
		Dup:     []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
		Delay:   []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(20 * time.Microsecond)}},
		Crashes: []chaos.Crash{{Node: 3, At: chaos.Duration(2 * time.Millisecond)}},
	}
	data, err := json.Marshal(plan)
	if err != nil {
		panic(err) // a plain struct of numbers always marshals
	}
	return data
}

func (w *chaosCampaign) run(rc runConfig) pass {
	t := newTally()
	start := time.Now()
	root := rc.tr.begin("bench", "pass chaos-traced")
	checks := make(map[string]string)
	for _, c := range w.cells {
		w.runCell(rc, t, c, checks)
	}
	rc.tr.end(root)
	return pass{wall: time.Since(start), t: t}
}

// knownDefects replays knownDefectCells outside the timed passes, the way
// the campaign runs its cells, and returns what it observed. Its failure counts
// in the traced run's operations and per-layer metrics; its outputs stay
// out of sim_digest, which covers the workload's passes only.
func (w *chaosCampaign) knownDefects(rc runConfig) *tally {
	t := newTally()
	for _, c := range knownDefectCells {
		w.runCell(rc, t, c, make(map[string]string))
	}
	return t
}

// runCell runs one cell of the campaign into t. A cell that errs (an
// exhausted event budget included) counts as a failed operation; checks
// maps each (app, seed) to the first protocol's answer, which every other
// protocol must reproduce.
func (w *chaosCampaign) runCell(rc runConfig, t *tally, c chaosCell, checks map[string]string) {
	label := c.label()
	id := rc.tr.begin("chaos", "dex.ParseChaosPlan "+label)
	plan, err := dex.ParseChaosPlan(c.plan, 4)
	rc.tr.end(id)
	t.ops++
	if err != nil {
		t.failed++
		t.problem("%s: plan: %v", label, err)
		return
	}
	var rec *dex.Recorder
	if rc.recorder {
		rec = dex.NewRecorder()
	}
	opts := []dex.Option{dex.WithChaos(plan), dex.WithProtocol(c.proto), dex.WithEventLimit(w.eventLimit), dex.WithObserver(rec)}

	var events uint64
	var check string
	if c.app == "kmn" {
		id = rc.tr.begin("apps", "apps.Run "+label)
		res, runErr := w.kmn.Run(apps.Config{Nodes: 4, ThreadsPerNode: 4, Variant: apps.Optimized, Size: apps.SizeTest, Seed: c.seed, Restart: true, Opts: opts})
		host := rc.tr.end(id)
		if err = runErr; err == nil {
			t.addApp("kmn", res, host)
			events, check = res.Report.Sched.Events, res.Check
		}
	} else {
		id = rc.tr.begin("serve", "serve.Run "+label)
		rep, runErr := serve.Run(serve.Config{Nodes: 4, Spec: serve.DefaultSpec(4, false, c.seed), Restart: true, Opts: opts})
		host := rc.tr.end(id)
		if err = runErr; err == nil {
			t.checkServe(label, rep, nil)
			t.addServe(label, rep, host)
			events = rep.Dex.Sched.Events
			// Admission is a pure function of the schedule, so the
			// offered and quota-refused counts agree across protocols.
			check = fmt.Sprintf("offered=%d shed429=%d", rep.Total.Offered, rep.Total.Shed429)
		}
	}
	if rec != nil {
		t.exportRecorder(rc.tr, label, rec)
	}
	if err != nil {
		t.failed++
		t.n["chaos.cells_failed"]++
		if errors.Is(err, sim.ErrEventLimit) {
			t.n["_chaos.cells_budget"]++
		}
		t.digestError(label, err)
		return
	}
	t.n["chaos.max_cell_events"] = max(t.n["chaos.max_cell_events"], float64(events))
	// Every protocol must reach the same answer for the same input.
	key := fmt.Sprintf("%s/seed%d", c.app, c.seed)
	if prev, ok := checks[key]; ok && prev != check {
		t.problem("%s: answer %q differs from another protocol's %q", label, check, prev)
	}
	checks[key] = check
}
