package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// This file mirrors the write-invalidate fault-injection suite
// (chaos_test.go) for the home-migrate policy: the same mixed workload must
// produce the same values under message drops, duplication, and delay, and
// the dead-home recovery paths (rebuild at the origin, route repair,
// request failover) must leave the directory consistent.

// newHomeChaosEnv is newChaosEnv with the home-migrate policy selected.
func newHomeChaosEnv(t *testing.T, nodes int, plan *chaos.Plan) *env {
	t.Helper()
	return newChaosEnvParams(t, nodes, plan, homeParams())
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
// home of a migrated page: reclaim must rebuild the entry (and ownership)
// at the origin, repoint every route aimed at the dead node, and leave
// survivors able to read and write the page.
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
	de := e.m.distEntry(testAddr.VPN())
	if de == nil {
		t.Fatal("no directory entry after recovery")
	}
	if de.home != 2 || de.writer != 2 {
		t.Fatalf("entry after survivor write: home=%d writer=%d, want 2/2", de.home, de.writer)
	}
	st := e.m.Stats()
	if st.DirRebuilt == 0 {
		t.Fatalf("DirRebuilt = 0 after a dead-home reclaim (stats: %+v)", st)
	}
	for n, ns := range e.m.nodes {
		for vpn, fw := range ns.fwd {
			if fw == 1 {
				t.Fatalf("node %d still routes page %#x to the dead home", n, vpn)
			}
		}
	}
}

// TestHomeChaosStaleHintFailsOverToOrigin: a requester whose route points
// at a home that died (but has not been reclaimed yet) must fail over to the
// origin instead of retransmitting at the dead node forever, and back off
// there until the lease layer declares the node and reclaims it.
func TestHomeChaosStaleHintFailsOverToOrigin(t *testing.T) {
	e := newHomeChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // home migrates to node 1
		_ = e.read(tk, 2, testAddr) // node 2 learns the route home=1
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		// The lease layer declares the death a little later.
		e.eng.Spawn("lease", func(lt *sim.Task) {
			lt.Sleep(200 * time.Microsecond)
			if _, err := e.m.ReclaimDeadNode(1); err != nil {
				t.Errorf("ReclaimDeadNode: %v", err)
			}
		})
		// Node 2's route still says home=1; the fault must detect the death
		// and re-target the origin, which serves once the page is rebuilt.
		e.write(tk, 2, testAddr, 3)
		got = e.read(tk, 0, testAddr)
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
	if st.PagesLost != 1 || st.DirRebuilt != 1 {
		t.Fatalf("PagesLost = %d, DirRebuilt = %d, want 1 and 1", st.PagesLost, st.DirRebuilt)
	}
}

// TestHomeChaosCrashDuringTraffic drives the mixed workload while the
// treated node crashes mid-run under drops, exercising the serve-side
// dead-home recovery paths; a lease task reclaims the dead node shortly
// after its death is confirmed. The engine must drain without deadlock and
// the directory must end consistent.
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
			e.eng.Spawn("lease", func(lt *sim.Task) {
				lt.Sleep(200 * time.Microsecond)
				if _, err := e.m.ReclaimDeadNode(1); err != nil {
					t.Errorf("seed %d: ReclaimDeadNode: %v", seed, err)
				}
			})
			_ = e.read(tk, 2, addrA) // dead-home failover until the reclaim
			e.write(tk, 2, addrB, 22)
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

// originFaultOnDeadHome drives a fault taken at the origin itself while the
// page's home has crashed but is not yet declared: write at 0, write at 1
// (home moves to 1), read at 2 (a surviving replica), crash 1, then read at
// the origin while a lease task reclaims node 1 200 µs later. The origin is
// where a dead home's entries get rebuilt, so its fault must back off on
// its route to the dead home rather than drop it and re-materialize the
// page from zero.
func originFaultOnDeadHome(t *testing.T, e *env, addr mem.Addr) {
	t.Helper()
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, addr, 7)
		e.write(tk, 1, addr, 9) // home migrates to node 1
		_ = e.read(tk, 2, addr) // node 2 takes a replica
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		e.eng.Spawn("lease", func(lt *sim.Task) {
			lt.Sleep(200 * time.Microsecond)
			if _, err := e.m.ReclaimDeadNode(1); err != nil {
				t.Errorf("ReclaimDeadNode: %v", err)
			}
		})
		got = e.read(tk, 0, addr)
	})
	e.run(t)
	if got != 9 {
		t.Fatalf("origin read across the dead-home window = %d, want 9 (recovered from node 2's replica)", got)
	}
	st := e.m.Stats()
	if st.HomeFailovers == 0 {
		t.Fatalf("HomeFailovers = 0; the origin's fault never saw the dead home (stats: %+v)", st)
	}
	if st.PagesLost != 0 {
		t.Fatalf("PagesLost = %d, want 0 (node 2 held a replica)", st.PagesLost)
	}
}

func TestHomeChaosOriginFaultWaitsForReclaim(t *testing.T) {
	e := newHomeChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	originFaultOnDeadHome(t, e, testAddr)
}

// handedOffHomeDies crashes a node that was the page's home but handed it
// to another writer the origin never heard from: node 2 writes through its
// own route to node 1, so the origin's route still names node 1 when node 1
// dies. The reclaim must repoint that route along the dead node's own
// forwarding pointer instead of dropping it, or the origin would take its
// next fault as the page's first touch.
func handedOffHomeDies(t *testing.T, e *env, addr mem.Addr) {
	t.Helper()
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, addr, 7)
		e.write(tk, 1, addr, 9) // home migrates to node 1
		_ = e.read(tk, 2, addr) // node 2 learns the route home=1
		e.write(tk, 2, addr, 5) // home migrates to node 2 through node 1
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		if _, err := e.m.ReclaimDeadNode(1); err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		got = e.read(tk, 0, addr)
	})
	e.run(t)
	if got != 5 {
		t.Fatalf("origin read after the old home died = %d, want 5 (node 2 is home)", got)
	}
	if st := e.m.Stats(); st.PagesLost != 0 {
		t.Fatalf("PagesLost = %d, want 0 (the dead node held no copy)", st.PagesLost)
	}
}

func TestHomeChaosReclaimFollowsDeadHomeForward(t *testing.T) {
	e := newHomeChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(3 * time.Millisecond)}}})
	handedOffHomeDies(t, e, testAddr)
}

// killedLocalServe kills a thread in the middle of a local directory
// transaction at the page's home: node 1 is home with node 2 sharing, node
// 1's write upgrade blocks on a revocation to node 2 (the link drops every
// message), and node 1 dies with its thread. No serve task would ever
// release the entry, so the unwinding task must, or the origin's read
// waits on it for good. The drop window opens after the setup traffic.
func killedLocalServe(t *testing.T, e *env, addr mem.Addr) {
	t.Helper()
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, addr, 7)
		e.write(tk, 1, addr, 9)    // home migrates to node 1
		_ = e.read(tk, 2, addr)    // node 2 shares the page
		tk.Sleep(time.Millisecond) // into the plan's drop window
		victim := e.eng.Spawn("victim", func(vt *sim.Task) {
			e.write(vt, 1, addr, 10) // local upgrade at the home: revokes node 2
		})
		tk.Sleep(50 * time.Microsecond)
		e.net.Chaos().MarkDead(1)
		victim.Kill()
		e.eng.Spawn("lease", func(lt *sim.Task) {
			lt.Sleep(200 * time.Microsecond)
			if _, err := e.m.ReclaimDeadNode(1); err != nil {
				t.Errorf("ReclaimDeadNode: %v", err)
			}
		})
		got = e.read(tk, 0, addr)
	})
	e.run(t)
	if got != 9 {
		t.Fatalf("origin read after the home died mid-transaction = %d, want 9 (node 2's replica)", got)
	}
}

func killedLocalServePlan() *chaos.Plan {
	return &chaos.Plan{Seed: 1, Drop: []chaos.LinkRule{{
		Src: 1, Dst: 2, Prob: 1,
		From: chaos.Duration(time.Millisecond), To: chaos.Duration(time.Second),
	}}}
}

func TestHomeChaosKilledLocalServeIsSettled(t *testing.T) {
	killedLocalServe(t, newHomeChaosEnv(t, 3, killedLocalServePlan()), testAddr)
}

// settleAfterReclaim loses the install ack of a write grant that moves the
// page from node 1 to node 2, then crashes node 1 and reclaims it before
// node 1's serve times out: the reclaim finds the entry busy and keeps the
// origin's route to node 1. When the serve then settles (the grant did
// reach node 2), the route must follow the page to node 2, or the origin's
// read backs off on a reclaimed node for good.
func settleAfterReclaim(t *testing.T, e *env, addr mem.Addr) {
	t.Helper()
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, addr, 7)
		e.write(tk, 1, addr, 9) // home migrates to node 1
		_ = e.read(tk, 2, addr) // node 2 learns the route home=1
		tk.Sleep(time.Millisecond - tk.Now())
		e.eng.Spawn("writer", func(wt *sim.Task) { e.write(wt, 2, addr, 5) })
		tk.Sleep(50 * time.Microsecond)
		e.net.Chaos().MarkDead(1)
		if _, err := e.m.ReclaimDeadNode(1); err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		got = e.read(tk, 0, addr)
	})
	e.run(t)
	if got != 5 {
		t.Fatalf("origin read after the settle = %d, want 5 (node 2 is home)", got)
	}
}

// settleAfterReclaimPlan drops node 2's traffic to node 1 from just after
// the write request leaves: the grant lands, its install ack does not.
func settleAfterReclaimPlan(delta time.Duration) *chaos.Plan {
	return &chaos.Plan{Seed: 1, Drop: []chaos.LinkRule{{
		Src: 2, Dst: 1, Prob: 1,
		From: chaos.Duration(time.Millisecond + delta), To: chaos.Duration(time.Second),
	}}}
}

func TestHomeChaosSettleAfterReclaimRepointsRoute(t *testing.T) {
	e := newHomeChaosEnv(t, 3, settleAfterReclaimPlan(5*time.Microsecond))
	settleAfterReclaim(t, e, testAddr)
}
