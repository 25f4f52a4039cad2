package dsm

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

type env struct {
	eng *sim.Engine
	net *fabric.Network
	m   *Manager
}

func newEnv(t *testing.T, nodes int, params Params) *env {
	t.Helper()
	return newEnvSeed(t, nodes, params, 1)
}

func newEnvSeed(t *testing.T, nodes int, params Params, seed int64) *env {
	t.Helper()
	return wireEnv(t, seed, nodes, params, nil)
}

// testEventLimit caps every test engine. The busiest dsm test commits about
// 78k events, so a run that reaches a million is a livelock: it ends as an
// attributable sim.ErrEventLimit instead of hanging the package.
const testEventLimit = 1_000_000

// wireEnv builds an engine, the fabric and a manager with params. A non-nil
// plan attaches a fault injector to the fabric before the manager is
// created (mirroring core's wiring order).
func wireEnv(t *testing.T, seed int64, nodes int, params Params, plan *chaos.Plan) *env {
	t.Helper()
	eng := sim.NewEngine(seed)
	eng.SetEventLimit(testEventLimit)
	net := fabric.New(eng, fabric.DefaultParams(nodes))
	if plan != nil {
		if err := plan.Validate(nodes); err != nil {
			t.Fatalf("plan: %v", err)
		}
		net.SetChaos(chaos.NewInjector(plan, nodes))
	}
	m := New(eng, net, params, 1, 0, nodes)
	for i := 0; i < nodes; i++ {
		node := i
		net.SetHandler(node, func(src int, msg fabric.Message) {
			if !m.HandleMessage(node, src, msg) {
				t.Errorf("unhandled message at node %d from %d: %T", node, src, msg)
			}
		})
	}
	return &env{eng: eng, net: net, m: m}
}

func (e *env) run(t *testing.T) {
	t.Helper()
	if err := e.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := e.m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// record attaches a recorder bound to the engine clock, the only sink of
// the manager's fault stream.
func (e *env) record() *obs.Recorder {
	rec := obs.NewRecorder()
	rec.SetClock(e.eng.Now)
	e.m.SetRecorder(rec)
	return rec
}

// faultSpans returns the completed-fault spans (reads and writes) rec holds.
func faultSpans(rec *obs.Recorder) []obs.Span {
	var out []obs.Span
	for _, sp := range rec.Spans() {
		if sp.Cat == "dsm" && (sp.Name == SpanFaultRead || sp.Name == SpanFaultWrite) {
			out = append(out, sp)
		}
	}
	return out
}

func (e *env) write(t *sim.Task, node int, addr mem.Addr, val byte) {
	pte := e.m.EnsurePage(t, Ctx{Node: node, Site: "test"}, addr, true)
	pte.Frame[addr.PageOff()] = val
}

func (e *env) read(t *sim.Task, node int, addr mem.Addr) byte {
	pte := e.m.EnsurePage(t, Ctx{Node: node, Site: "test"}, addr, false)
	return pte.Frame[addr.PageOff()]
}

const testAddr = mem.Addr(0x40000000)

func TestRemoteReadSeesOriginData(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 42) // first touch at origin
		got = e.read(tk, 1, testAddr)
	})
	e.run(t)
	if got != 42 {
		t.Fatalf("remote read = %d, want 42", got)
	}
	st := e.m.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1 (first touch at origin must not count)", st.ReadFaults)
	}
	if st.WriteFaults != 0 {
		t.Fatalf("WriteFaults = %d, want 0", st.WriteFaults)
	}
	// Both nodes now share the page.
	if e.m.Lookup(0, testAddr.VPN(), false) == nil || e.m.Lookup(1, testAddr.VPN(), false) == nil {
		t.Fatal("page not replicated to both nodes")
	}
	if e.m.Lookup(1, testAddr.VPN(), true) != nil {
		t.Fatal("remote replica is writable after a read grant")
	}
}

func TestRemoteWriteInvalidatesOrigin(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	var back byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 99) // remote takes exclusive ownership
		if e.m.Lookup(0, testAddr.VPN(), false) != nil {
			t.Error("origin copy survived a remote write grant")
		}
		back = e.read(tk, 0, testAddr) // origin pulls the page home
	})
	e.run(t)
	if back != 99 {
		t.Fatalf("origin read back %d, want 99", back)
	}
	st := e.m.Stats()
	if st.PageTransfers == 0 {
		t.Fatal("expected a fetch-from-writer page transfer")
	}
	if st.Invalidations == 0 {
		t.Fatal("expected at least one invalidation")
	}
}

func TestOwnershipOnlyGrantOnUpgrade(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 5)
		_ = e.read(tk, 1, testAddr) // node 1 gets a shared copy
		e.write(tk, 1, testAddr, 6) // upgrade: fresh copy, no data needed
		if got := e.read(tk, 0, testAddr); got != 6 {
			t.Errorf("origin read %d, want 6", got)
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.OwnershipGrants != 1 {
		t.Fatalf("OwnershipGrants = %d, want 1", st.OwnershipGrants)
	}
}

func TestAlwaysSendDataAblation(t *testing.T) {
	p := DefaultParams()
	p.AlwaysSendData = true
	e := newEnv(t, 2, p)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 5)
		_ = e.read(tk, 1, testAddr)
		e.write(tk, 1, testAddr, 6)
	})
	e.run(t)
	if got := e.m.Stats().OwnershipGrants; got != 0 {
		t.Fatalf("OwnershipGrants = %d, want 0 with AlwaysSendData", got)
	}
}

func TestThirdNodeTransfer(t *testing.T) {
	e := newEnv(t, 3, DefaultParams())
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 123) // node 1 exclusive
		got = e.read(tk, 2, testAddr) // via origin: downgrade node 1, replicate to 2
	})
	e.run(t)
	if got != 123 {
		t.Fatalf("third-node read = %d, want 123", got)
	}
	// All three nodes (origin pulled a copy home too) share it.
	for n := 0; n < 3; n++ {
		if e.m.Lookup(n, testAddr.VPN(), false) == nil {
			t.Fatalf("node %d lacks a shared copy", n)
		}
	}
	if e.m.Stats().Downgrades != 1 {
		t.Fatalf("Downgrades = %d, want 1", e.m.Stats().Downgrades)
	}
}

func TestUncontendedRemoteFaultLatency(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	var lat time.Duration
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		start := tk.Now()
		_ = e.read(tk, 1, testAddr)
		lat = tk.Now() - start
	})
	e.run(t)
	// Paper §V-D: uncontended faults complete in 19.3 µs.
	if lat < 14*time.Microsecond || lat > 26*time.Microsecond {
		t.Fatalf("uncontended remote fault = %v, want ~19µs", lat)
	}
}

func TestLeaderFollowerCoalescing(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	const threads = 8
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 9)
		for i := 0; i < threads; i++ {
			e.eng.Spawn("reader", func(tk *sim.Task) {
				if got := e.read(tk, 1, testAddr); got != 9 {
					t.Errorf("reader saw %d, want 9", got)
				}
			})
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1 (coalesced)", st.ReadFaults)
	}
	if st.FollowerJoins != threads-1 {
		t.Fatalf("FollowerJoins = %d, want %d", st.FollowerJoins, threads-1)
	}
}

// TestFollowerJoinCountedOncePerGroup pins the A1 ablation counter: a task
// that parks on an in-flight fault group, is woken spuriously (e.g. by a
// stray futex wake delivered as an Unpark token), and re-parks on the same
// group must count as ONE follower join, not one per park.
func TestFollowerJoinCountedOncePerGroup(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	var follower *sim.Task
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 9)
		e.eng.Spawn("leader", func(tk *sim.Task) {
			if got := e.read(tk, 1, testAddr); got != 9 {
				t.Errorf("leader read %d, want 9", got)
			}
		})
		follower = e.eng.Spawn("follower", func(tk *sim.Task) {
			// Start after the leader so the fault group is in flight.
			tk.Sleep(2 * time.Microsecond)
			if got := e.read(tk, 1, testAddr); got != 9 {
				t.Errorf("follower read %d, want 9", got)
			}
		})
		// Spurious wake while the leader's protocol (~19µs) is still
		// running: the follower re-parks on the same fault group.
		e.eng.SpawnAfter("poker", 5*time.Microsecond, func(tk *sim.Task) {
			follower.Unpark()
		})
	})
	e.run(t)
	st := e.m.Stats()
	if st.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d, want 1 (coalesced)", st.ReadFaults)
	}
	if st.FollowerJoins != 1 {
		t.Fatalf("FollowerJoins = %d, want exactly 1 for one follower", st.FollowerJoins)
	}
}

func TestCoalescingDisabledAblation(t *testing.T) {
	p := DefaultParams()
	p.DisableCoalescing = true
	e := newEnv(t, 2, p)
	const threads = 8
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 9)
		for i := 0; i < threads; i++ {
			e.eng.Spawn("reader", func(tk *sim.Task) {
				_ = e.read(tk, 1, testAddr)
			})
		}
	})
	e.run(t)
	st := e.m.Stats()
	if st.FollowerJoins != 0 {
		t.Fatalf("FollowerJoins = %d, want 0 when disabled", st.FollowerJoins)
	}
	// Every thread that still misses after the first install leads its own
	// fault; at minimum the protocol ran more than once or NACKed.
	if st.ReadFaults+st.Nacks < 2 {
		t.Fatalf("expected redundant protocol work, stats = %+v", st)
	}
}

func TestWritePingPongProducesRetriesAndBimodalLatency(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	rec := e.record()
	const iters = 120
	for n := 0; n < 2; n++ {
		node := n
		e.eng.Spawn("writer", func(tk *sim.Task) {
			for i := 0; i < iters; i++ {
				// Update = read-modify-write, like the paper's microbench
				// ("both threads continually update a single global").
				v := e.read(tk, node, testAddr)
				e.write(tk, node, testAddr, v+1)
				tk.Sleep(2 * time.Microsecond)
			}
		})
	}
	e.run(t)
	st := e.m.Stats()
	if st.Nacks == 0 {
		t.Fatalf("expected NACK retries under ping-pong, stats = %+v", st)
	}
	var fast, slow int
	for _, sp := range faultSpans(rec) {
		if sp.Dur < 40*time.Microsecond {
			fast++
		} else {
			slow++
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("latency distribution not bimodal: fast=%d slow=%d", fast, slow)
	}
}

// TestTotalLatencyMatchesFaultSpans: under every policy the recorder holds
// one fault span per counted fault, and their durations sum to
// Stats.TotalLatency. Recording does not perturb the run.
func TestTotalLatencyMatchesFaultSpans(t *testing.T) {
	for _, proto := range []Protocol{WriteInvalidate, HomeMigrate, DistributedManager} {
		p := DefaultParams()
		p.Protocol = proto
		run := func(rec bool) (Stats, *obs.Recorder) {
			e := newEnv(t, 3, p)
			var r *obs.Recorder
			if rec {
				r = e.record()
			}
			for n := 0; n < 3; n++ {
				node := n
				e.eng.Spawn("worker", func(tk *sim.Task) {
					for i := 0; i < 40; i++ {
						addr := testAddr + mem.Addr((i%3)*mem.PageSize)
						v := e.read(tk, node, addr)
						if node < 2 {
							e.write(tk, node, addr, v+1)
						}
						tk.Sleep(3 * time.Microsecond)
					}
				})
			}
			e.run(t)
			return e.m.Stats(), r
		}
		plain, _ := run(false)
		st, rec := run(true)
		if st != plain {
			t.Fatalf("%v: recording changed the run:\nplain:    %+v\nrecorded: %+v", proto, plain, st)
		}
		if st.TotalLatency == 0 {
			t.Fatalf("%v: TotalLatency not aggregated", proto)
		}
		spans := faultSpans(rec)
		var sum time.Duration
		for _, sp := range spans {
			sum += sp.Dur
		}
		if uint64(len(spans)) != st.ReadFaults+st.WriteFaults || sum != st.TotalLatency {
			t.Fatalf("%v: %d fault spans summing to %v, stats count %d faults totalling %v",
				proto, len(spans), sum, st.ReadFaults+st.WriteFaults, st.TotalLatency)
		}
	}
}

// TestProfilerHookReceivesEvents: the recorder's fault spans, the page-fault
// profiler's input, carry the paper's §IV-A tuple — node, task, site,
// address, latency — for every read and write fault, plus an invalidation
// marker per revoked copy.
func TestProfilerHookReceivesEvents(t *testing.T) {
	e := newEnv(t, 2, DefaultParams())
	rec := e.record()
	e.eng.Spawn("main", func(tk *sim.Task) {
		pte := e.m.EnsurePage(tk, Ctx{Node: 0, Task: 3, Site: "init"}, testAddr, true)
		pte.Frame[0] = 1
		pte = e.m.EnsurePage(tk, Ctx{Node: 1, Task: 7, Site: "reader"}, testAddr, false)
		_ = pte.Frame[0]
		pte = e.m.EnsurePage(tk, Ctx{Node: 1, Task: 7, Site: "writer"}, testAddr, true)
		pte.Frame[0] = 2
	})
	e.run(t)
	addr := obs.Hex("addr", uint64(testAddr))
	var reads, writes, invals int
	for _, sp := range rec.Spans() {
		if sp.Cat != "dsm" {
			continue
		}
		switch sp.Name {
		case SpanFaultRead:
			reads++
			want := []obs.Arg{addr, obs.Int("retries", 0), obs.String("site", "reader")}
			if sp.Node != 1 || sp.Task != 7 || !reflect.DeepEqual(sp.Args, want) {
				t.Errorf("bad read span: %+v", sp)
			}
			if sp.Dur <= 0 {
				t.Errorf("read span missing latency: %+v", sp)
			}
		case SpanFaultWrite:
			writes++
		case SpanInvalidate:
			invals++
			if sp.Task != -1 || sp.Dur != 0 || !reflect.DeepEqual(sp.Args, []obs.Arg{addr}) {
				t.Errorf("bad invalidation span: %+v", sp)
			}
		}
	}
	if reads != 1 || writes != 1 || invals == 0 {
		t.Fatalf("events: reads=%d writes=%d invals=%d", reads, writes, invals)
	}
}

// TestSequentialRandomOpsDataCorrect drives a random sequence of reads and
// writes from varying nodes through one task and checks every read observes
// the most recent write (sequential consistency under a serial history).
func TestSequentialRandomOpsDataCorrect(t *testing.T) {
	const nodes = 4
	e := newEnv(t, nodes, DefaultParams())
	rng := rand.New(rand.NewSource(99))
	ref := make(map[mem.Addr]byte)
	e.eng.Spawn("driver", func(tk *sim.Task) {
		for i := 0; i < 600; i++ {
			page := mem.Addr(0x40000000 + mem.PageSize*(rng.Intn(8)))
			addr := page + mem.Addr(rng.Intn(mem.PageSize))
			node := rng.Intn(nodes)
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(256))
				e.write(tk, node, addr, v)
				ref[addr] = v
			} else {
				got := e.read(tk, node, addr)
				if want := ref[addr]; got != want {
					t.Errorf("op %d: node %d read %v = %d, want %d", i, node, addr, got, want)
					return
				}
			}
		}
	})
	e.run(t)
}

// TestConcurrentChaosInvariants runs many concurrent accessors across nodes
// and pages, then verifies the protocol's global invariants at quiescence.
func TestConcurrentChaosInvariants(t *testing.T) {
	const nodes = 4
	for seed := int64(1); seed <= 3; seed++ {
		e := newEnvSeed(t, nodes, DefaultParams(), seed)
		rng := rand.New(rand.NewSource(seed * 7))
		for w := 0; w < 12; w++ {
			node := w % nodes
			ops := make([]struct {
				addr  mem.Addr
				write bool
			}, 60)
			for i := range ops {
				ops[i].addr = mem.Addr(0x40000000+mem.PageSize*rng.Intn(4)) + mem.Addr(rng.Intn(mem.PageSize))
				ops[i].write = rng.Intn(3) == 0
			}
			e.eng.Spawn("chaos", func(tk *sim.Task) {
				for i, op := range ops {
					if op.write {
						e.write(tk, node, op.addr, byte(i))
					} else {
						_ = e.read(tk, node, op.addr)
					}
					tk.Sleep(time.Microsecond)
				}
			})
		}
		e.run(t) // includes CheckInvariants
	}
}

func TestDeterministicStats(t *testing.T) {
	run := func() Stats {
		e := newEnvSeed(t, 3, DefaultParams(), 5)
		for n := 0; n < 3; n++ {
			node := n
			e.eng.Spawn("w", func(tk *sim.Task) {
				for i := 0; i < 50; i++ {
					e.write(tk, node, testAddr+mem.Addr(i%2*mem.PageSize), byte(i))
					tk.Sleep(3 * time.Microsecond)
				}
			})
		}
		e.run(t)
		return e.m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestManyPagesManyNodes(t *testing.T) {
	const nodes = 8
	e := newEnv(t, nodes, DefaultParams())
	const pages = 16
	// Each node writes its own page slice, then reads everyone else's.
	done := 0
	for n := 0; n < nodes; n++ {
		node := n
		e.eng.Spawn("worker", func(tk *sim.Task) {
			for p := 0; p < pages; p++ {
				if p%nodes == node {
					e.write(tk, node, testAddr+mem.Addr(p*mem.PageSize), byte(p))
				}
			}
			tk.Sleep(500 * time.Microsecond) // let all writers finish
			for p := 0; p < pages; p++ {
				if got := e.read(tk, node, testAddr+mem.Addr(p*mem.PageSize)); got != byte(p) {
					t.Errorf("node %d page %d read %d", node, p, got)
				}
			}
			done++
		})
	}
	e.run(t)
	if done != nodes {
		t.Fatalf("only %d workers completed", done)
	}
}
