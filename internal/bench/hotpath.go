// Package bench defines the simulator hot-path micro-benchmarks shared by
// `go test -bench` (internal/bench/hotpath_bench_test.go) and the
// cmd/dexhotpath tool that emits the machine-readable BENCH_hotpath.json
// perf trajectory. Keeping the benchmark bodies in a plain package lets the
// same code run under both harnesses, so the checked-in numbers and the CI
// smoke run can never drift apart.
//
// The four benchmarks cover the paths the repo's wall-clock is bound by:
//
//   - FaultFastPath: the DSM local-hit path — EnsurePage on a page the node
//     already holds with sufficient rights. This is the paper's "a node may
//     keep accessing a page without contacting the origin" common case and
//     is served by the software TLB in front of the page table.
//   - FaultSlowPath: a write ping-pong between two nodes on one page. Every
//     iteration runs the full protocol: revocation, page transfer, PTE
//     install — the page-transfer allocation path.
//   - EventDispatch: raw simulator event throughput (heap push/pop plus
//     dispatch) with a few hundred timers in flight.
//   - Experiment: one end-to-end experiment table (the §V-D fault
//     microbenchmark) at test scale.
package bench

import (
	"runtime"
	"testing"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/dsm"
	"dex/internal/exper"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

// twoNodeDSM builds a minimal two-node cluster fragment: engine, fabric, and
// one DSM manager with its messages routed.
func twoNodeDSM() (*sim.Engine, *dsm.Manager) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	m := dsm.New(eng, net, dsm.DefaultParams(), 0, 0, 2)
	for node := 0; node < 2; node++ {
		node := node
		net.SetHandler(node, func(src int, msg fabric.Message) {
			if !m.HandleMessage(node, src, msg) {
				panic("bench: unroutable message")
			}
		})
	}
	return eng, m
}

// FaultFastPath measures the DSM local-hit path: EnsurePage on pages the
// node already maps with sufficient rights. No protocol work, no simulator
// events — only the translation lookup itself.
func FaultFastPath(b *testing.B) {
	b.ReportAllocs()
	eng, m := twoNodeDSM()
	const pages = 64
	eng.Spawn("bench", func(t *sim.Task) {
		ctx := dsm.Ctx{Node: 0, Site: "bench"}
		for i := 0; i < pages; i++ {
			m.EnsurePage(t, ctx, mem.Addr(i)*mem.PageSize, true)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.EnsurePage(t, ctx, mem.Addr(i%pages)*mem.PageSize, false)
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// FaultSlowPath measures the full protocol path: two nodes alternately
// taking write faults on the same page, so every iteration revokes the
// other copy and moves the page across the fabric.
func FaultSlowPath(b *testing.B) {
	b.ReportAllocs()
	eng, m := twoNodeDSM()
	eng.Spawn("bench", func(t *sim.Task) {
		addr := mem.Addr(0)
		m.EnsurePage(t, dsm.Ctx{Node: 0, Site: "seed"}, addr, true) // first touch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node := 1 - i%2
			m.EnsurePage(t, dsm.Ctx{Node: node, Site: "pingpong"}, addr, true)
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// EventDispatch measures raw event throughput: each processed event re-arms
// itself until the budget is spent, with eventWidth timers concurrently in
// the queue so heap operations work at a realistic depth.
func EventDispatch(b *testing.B) {
	b.ReportAllocs()
	const eventWidth = 256
	eng := sim.NewEngine(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		eng.After(time.Microsecond, tick)
	}
	b.ResetTimer()
	for i := 0; i < eventWidth && i < b.N; i++ {
		eng.After(time.Duration(i)*time.Nanosecond, tick)
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// parallelCoreAt runs one full application simulation per iteration — kmn
// optimized on four nodes, the configuration with the richest cross-node
// traffic — at the given simulator core count. Comparing the cores=1 and
// cores=N variants measures the conservative-parallel scheduler's wall-clock
// win (and, at GOMAXPROCS=1, its overhead): the simulated results are
// byte-identical either way.
func parallelCoreAt(b *testing.B, cores int) {
	b.ReportAllocs()
	app, ok := apps.ByName("kmn")
	if !ok {
		b.Fatal("unknown application \"kmn\"")
	}
	for i := 0; i < b.N; i++ {
		cfg := apps.Config{
			Nodes:   4,
			Variant: apps.Optimized,
			Opts:    []dex.Option{dex.WithCores(cores)},
		}
		if _, err := app.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ParallelCoreSerial is the cores=1 reference for ParallelCore.
func ParallelCoreSerial(b *testing.B) { parallelCoreAt(b, 1) }

// ParallelCore runs the same workload on every available host core.
func ParallelCore(b *testing.B) { parallelCoreAt(b, runtime.GOMAXPROCS(0)) }

// Experiment regenerates one end-to-end experiment table (the §V-D
// fault-handling microbenchmark) at test scale per iteration.
func Experiment(b *testing.B) {
	b.ReportAllocs()
	e, ok := exper.ByID("faults")
	if !ok {
		b.Fatal("unknown experiment \"faults\"")
	}
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration: memoized cells would otherwise make
		// every iteration after the first free.
		e.Run(exper.NewRunner(0), apps.SizeTest)
	}
}
