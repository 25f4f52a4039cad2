package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

// This file mirrors the write-invalidate fault-injection suite
// (chaos_test.go) for the home-migrate policy: the same mixed workload must
// produce the same values under message drops, duplication, and delay, and
// the dead-home recovery paths (rehome to origin, hint invalidation,
// request failover) must leave the directory consistent.

// newHomeChaosEnv is newChaosEnv with the home-migrate policy selected.
func newHomeChaosEnv(t *testing.T, nodes int, plan *chaos.Plan) *env {
	t.Helper()
	if err := plan.Validate(nodes); err != nil {
		t.Fatalf("plan: %v", err)
	}
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(nodes))
	net.SetChaos(chaos.NewInjector(plan, nodes))
	m := New(eng, net, homeParams(), 1, 0, nodes)
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

func TestHomeChaosDropRecoversByRetransmission(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 3,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.4}},
	}
	e := newHomeChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
	if st := e.m.Stats(); st.Retransmits == 0 {
		t.Fatalf("Retransmits = 0 under a 40%% drop rate (injector stats: %+v)", e.net.Chaos().Stats())
	}
	if e.net.Chaos().Stats().Dropped == 0 {
		t.Fatal("injector dropped nothing at prob 0.4")
	}
}

func TestHomeChaosDuplicatesAreIdempotent(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 5,
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}},
	}
	e := newHomeChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
	if st := e.m.Stats(); st.DupsIgnored == 0 {
		t.Fatalf("DupsIgnored = 0 with every message duplicated (stats: %+v)", st)
	}
}

func TestHomeChaosDropDupDelayTogether(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  9,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.25}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(30 * time.Microsecond)}},
	}
	e := newHomeChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
}

func TestHomeChaosRunsAreDeterministic(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  7,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(20 * time.Microsecond)}},
	}
	run := func() (Stats, chaos.Stats, time.Duration) {
		e := newHomeChaosEnv(t, 3, plan)
		e.eng.Spawn("main", func(tk *sim.Task) { mixedWorkload(e, tk) })
		e.run(t)
		return e.m.Stats(), e.net.Chaos().Stats(), e.eng.Now()
	}
	s1, i1, t1 := run()
	s2, i2, t2 := run()
	if s1 != s2 || i1 != i2 || t1 != t2 {
		t.Fatalf("same seed+plan diverged:\n%+v %+v %v\nvs\n%+v %+v %v", s1, i1, t1, s2, i2, t2)
	}
}

// TestHomeChaosDeadHomeRehomedToOrigin crashes a node that has become the
// home of a migrated page: reclaim must move the home (and ownership) back
// to the origin, invalidate every stale home hint pointing at the dead
// node, and leave survivors able to read and write the page.
func TestHomeChaosDeadHomeRehomedToOrigin(t *testing.T) {
	e := newHomeChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	var after byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // home migrates to node 1
		_ = e.read(tk, 2, testAddr) // node 2 learns the hint home=1
		e.net.Chaos().MarkDead(1)
		lost, err := e.m.ReclaimDeadNode(1)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		// Node 2 still holds a replica of the page, so the rehome recovers
		// the bytes from it instead of zero-filling.
		if len(lost) != 0 {
			t.Errorf("ReclaimDeadNode lost %v, want none (node 2 held a replica)", lost)
		}
		after = e.read(tk, 2, testAddr)
		e.write(tk, 2, testAddr, 5)
	})
	e.run(t)
	if after != 9 {
		t.Fatalf("read after rehome = %d, want 9 (recovered from the surviving replica)", after)
	}
	de, ok := e.m.dir.Get(testAddr.VPN())
	if !ok {
		t.Fatal("no directory entry after recovery")
	}
	if de.home != 2 || de.writer != 2 {
		t.Fatalf("entry after survivor write: home=%d writer=%d, want 2/2", de.home, de.writer)
	}
	st := e.m.Stats()
	if st.PagesRehomed == 0 {
		t.Fatalf("PagesRehomed = 0 after a dead-home reclaim (stats: %+v)", st)
	}
	for n := range e.m.nodes {
		for vpn, h := range e.m.nodes[n].homeHint {
			if h == 1 {
				t.Fatalf("node %d still hints page %#x at the dead home", n, vpn)
			}
		}
	}
}

// TestHomeChaosStaleHintFailsOverToOrigin: a requester whose hint points at
// a home that died (but has not been reclaimed yet) must fail over to the
// origin instead of retransmitting at the dead node forever.
func TestHomeChaosStaleHintFailsOverToOrigin(t *testing.T) {
	e := newHomeChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // home migrates to node 1
		_ = e.read(tk, 2, testAddr) // node 2 learns the hint home=1
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		// Node 2's hint still says home=1; the fault must detect the death
		// and re-target the origin, which recovers the page.
		e.write(tk, 2, testAddr, 3)
		got = e.read(tk, 0, testAddr)
		e.m.ReclaimDeadNode(1)
	})
	e.run(t)
	if got != 3 {
		t.Fatalf("read after failover write = %d, want 3", got)
	}
	if st := e.m.Stats(); st.HomeFailovers == 0 {
		t.Fatalf("HomeFailovers = 0 after a stale-hint fault (stats: %+v)", st)
	}
}

// TestHomeChaosLostExclusiveZeroFills: when the dead home held the page's
// only copy (it was the exclusive writer), the rehome zero-fills at the
// origin and counts the page lost — same contract as write-invalidate.
func TestHomeChaosLostExclusiveZeroFills(t *testing.T) {
	e := newHomeChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	var after byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // node 1 is home and exclusive writer
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		lost, err := e.m.ReclaimDeadNode(1)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		if len(lost) != 1 {
			t.Errorf("ReclaimDeadNode lost %d pages, want 1", len(lost))
		}
		after = e.read(tk, 2, testAddr)
	})
	e.run(t)
	if after != 0 {
		t.Fatalf("read from lost page = %d, want 0 (zero-filled)", after)
	}
	st := e.m.Stats()
	if st.PagesLost != 1 || st.PagesRehomed != 1 {
		t.Fatalf("PagesLost = %d, PagesRehomed = %d, want 1 and 1", st.PagesLost, st.PagesRehomed)
	}
}

// TestHomeChaosCrashDuringTraffic drives the mixed workload while the
// treated node crashes mid-run under drops, exercising the serve-side
// dead-home recovery paths; the engine must drain without deadlock and the
// directory must end consistent.
func TestHomeChaosCrashDuringTraffic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := &chaos.Plan{
			Seed:    seed,
			Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
			Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(300 * time.Microsecond)}},
		}
		e := newHomeChaosEnv(t, 3, plan)
		addrA, addrB := testAddr, testAddr+mem.Addr(mem.PageSize)
		e.eng.Spawn("main", func(tk *sim.Task) {
			e.write(tk, 0, addrA, 10)
			e.write(tk, 1, addrA, 11) // home moves to the doomed node
			e.write(tk, 1, addrB, 21)
			tk.Sleep(time.Millisecond) // crash fires
			e.net.Chaos().MarkDead(1)  // idempotent with the plan's crash
			_ = e.read(tk, 2, addrA)   // stale-hint / dead-home recovery
			e.write(tk, 2, addrB, 22)
			e.m.ReclaimDeadNode(1)
			_ = e.read(tk, 0, addrA)
			e.write(tk, 0, addrA, 12)
		})
		e.run(t) // includes CheckInvariants
	}
}

// TestReclaimOriginNodeReturnsError pins the reclaim contract: declaring
// the origin dead is not survivable and must surface an attributable error,
// not a panic.
func TestReclaimOriginNodeReturnsError(t *testing.T) {
	e := newHomeChaosEnv(t, 2, &chaos.Plan{Seed: 1, Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}}})
	if _, err := e.m.ReclaimDeadNode(0); err == nil {
		t.Fatal("ReclaimDeadNode(origin) returned nil error")
	}
}
