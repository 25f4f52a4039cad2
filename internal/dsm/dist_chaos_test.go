package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// This file mirrors the fault-injection suites of the other two policies for
// the sharded directory: the mixed workload must be delivery-invariant under
// drops, duplication, and delay; the three-party lookup -> forward -> grant
// exchange must survive the same chaos; and crashing a directory shard must
// rebuild its slice at the pages' live anchors.

// newDistChaosEnv is newChaosEnv with the distributed-manager policy.
func newDistChaosEnv(t *testing.T, nodes int, plan *chaos.Plan) *env {
	t.Helper()
	return newChaosEnvParams(t, nodes, plan, distParams())
}

func TestDistChaosDropRecoversByRetransmission(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 3,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.4}},
	}
	e := newDistChaosEnv(t, 3, plan)
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

func TestDistChaosDuplicatesAreIdempotent(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 5,
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}},
	}
	e := newDistChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
	if st := e.m.Stats(); st.DupsIgnored == 0 {
		t.Fatalf("DupsIgnored = 0 with every message duplicated (stats: %+v)", st)
	}
}

func TestDistChaosDropDupDelayTogether(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  9,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.25}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(30 * time.Microsecond)}},
	}
	e := newDistChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
}

// TestDistChaosForwardedGrantDeliveryInvariant drives the three-party
// lookup -> forward -> grant exchange (requester asks the anchor, the anchor
// redirects, the authoritative shard grants) under simultaneous drops,
// duplication, and delay: the value must come through and the route must end
// repaired exactly as in the clean run.
func TestDistChaosForwardedGrantDeliveryInvariant(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  13,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(25 * time.Microsecond)}},
	}
	e := newDistChaosEnv(t, 3, plan)
	addr := addrAnchoredAt(t, e.m, 0)
	vpn := addr.VPN()
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, addr, 42)         // authority: anchor 0 -> node 1
		tk.Sleep(300 * time.Microsecond) // let the handoff settle under delay
		got = e.read(tk, 2, addr)        // node 2 -> anchor 0 -> forward -> grant at 1
	})
	e.run(t)
	if got != 42 {
		t.Fatalf("read across the forwarded grant = %d, want 42", got)
	}
	st := e.m.Stats()
	if st.Forwards == 0 {
		t.Fatalf("Forwards = 0; the anchor never redirected (stats: %+v)", st)
	}
	if h := e.m.nodes[2].fwd[vpn]; h != 1 {
		t.Fatalf("reader's route = %d, want 1 after the grant", h)
	}
	if _, ok := e.m.nodes[1].dir[vpn]; !ok {
		t.Fatal("entry not hosted at node 1 after the exchange")
	}
}

func TestDistChaosRunsAreDeterministic(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  7,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(20 * time.Microsecond)}},
	}
	run := func() (Stats, chaos.Stats, time.Duration) {
		e := newDistChaosEnv(t, 3, plan)
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

// TestDistChaosCrashedShardRebuilt crashes a non-origin node that both
// anchors and hosts a page other nodes still replicate: reclaim must rebuild
// the dead shard's directory slice at the pages' live anchors from the
// surviving replicas, repoint every forwarding pointer and hint away from
// the dead node, and leave survivors able to read (preserved bytes) and
// write through the static anchor's failover.
func TestDistChaosCrashedShardRebuilt(t *testing.T) {
	e := newDistChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(time.Millisecond)}}})
	addr := addrAnchoredAt(t, e.m, 2)
	vpn := addr.VPN()
	var after byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 2, addr, 9) // first touch: hosted at its own anchor, shard 2
		_ = e.read(tk, 0, addr) // node 0 takes a surviving replica
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(2) // idempotent with the plan's crash
		lost, err := e.m.ReclaimDeadNode(2)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		if len(lost) != 0 {
			t.Errorf("ReclaimDeadNode lost %v, want none (node 0 held a replica)", lost)
		}
		// Node 1 has no routing state; its fault targets the dead anchor and
		// must fail over to the live shard ring.
		after = e.read(tk, 1, addr)
		e.write(tk, 1, addr, 5)
	})
	e.run(t)
	if after != 9 {
		t.Fatalf("read after rebuild = %d, want 9 (recovered from the surviving replica)", after)
	}
	st := e.m.Stats()
	if st.DirRebuilt == 0 {
		t.Fatalf("DirRebuilt = 0 after reclaiming a shard that hosted entries (stats: %+v)", st)
	}
	if st.HomeFailovers == 0 {
		t.Fatalf("HomeFailovers = 0; the dead-anchor fault never failed over (stats: %+v)", st)
	}
	de, ok := e.m.nodes[1].dir[vpn]
	if !ok {
		t.Fatal("entry not hosted at the surviving writer after the rebuild")
	}
	if de.home != 1 || de.writer != 1 {
		t.Fatalf("entry after survivor write: home=%d writer=%d, want 1/1", de.home, de.writer)
	}
	for n, ns := range e.m.nodes {
		for vpn, fw := range ns.fwd {
			if fw == 2 {
				t.Fatalf("node %d still forwards page %#x to the dead shard", n, vpn)
			}
		}
	}
}

// TestDistChaosLostExclusiveZeroFills: when the dead shard held the page's
// only copy (it was the exclusive writer of a page it anchors), the rebuild
// zero-fills at the live anchor and counts the page lost — the same contract
// as the other policies.
func TestDistChaosLostExclusiveZeroFills(t *testing.T) {
	e := newDistChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(time.Millisecond)}}})
	addr := addrAnchoredAt(t, e.m, 2)
	var after byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 2, addr, 9) // exclusive at the doomed shard, no replicas
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(2)
		lost, err := e.m.ReclaimDeadNode(2)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		if len(lost) != 1 {
			t.Errorf("ReclaimDeadNode lost %d pages, want 1", len(lost))
		}
		after = e.read(tk, 0, addr)
	})
	e.run(t)
	if after != 0 {
		t.Fatalf("read from lost page = %d, want 0 (zero-filled)", after)
	}
	st := e.m.Stats()
	if st.PagesLost != 1 || st.DirRebuilt == 0 {
		t.Fatalf("PagesLost = %d, DirRebuilt = %d, want 1 and > 0", st.PagesLost, st.DirRebuilt)
	}
}

// TestDistChaosCrashDuringTraffic drives a mixed workload from the two
// survivors against pages anchored at a shard that crashes mid-run under
// drops: lookups, redirects, and grants in flight at the crash must fail
// over (or settle through the serve-side dead-home path), the post-reclaim
// rebuild must land the slice at live shards, and the run must drain with a
// consistent directory. The doomed node itself runs no tasks — a dead
// node's faults could never complete on a fabric that drops its messages.
func TestDistChaosCrashDuringTraffic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := &chaos.Plan{
			Seed:    seed,
			Drop:    []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.2}},
			Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(300 * time.Microsecond)}},
		}
		e := newDistChaosEnv(t, 3, plan)
		// Eight pages anchored at the doomed shard keep its directory slice
		// busy with lookups, grants, and serve windows as it dies.
		var doomed []mem.Addr
		for a := testAddr; len(doomed) < 8; a += mem.Addr(mem.PageSize) {
			if e.m.shardOf(a.VPN()) == 2 {
				doomed = append(doomed, a)
			}
		}
		for node := 0; node <= 1; node++ {
			node := node
			e.eng.Spawn("traffic", func(tk *sim.Task) {
				for i := 0; i < 12; i++ {
					a := doomed[(i+node*3)%len(doomed)]
					if (i+node)%3 == 0 {
						e.write(tk, node, a, byte(i+1))
					} else {
						_ = e.read(tk, node, a)
					}
					tk.Sleep(40 * time.Microsecond)
				}
			})
		}
		e.eng.Spawn("main", func(tk *sim.Task) {
			tk.Sleep(1500 * time.Microsecond) // crash fires at 300µs
			e.net.Chaos().MarkDead(2)
			if _, err := e.m.ReclaimDeadNode(2); err != nil {
				t.Errorf("seed %d: ReclaimDeadNode: %v", seed, err)
			}
			_ = e.read(tk, 1, doomed[0])
			e.write(tk, 1, doomed[0], 12)
			if got := e.read(tk, 0, doomed[0]); got != 12 {
				t.Errorf("seed %d: read after recovery = %d, want 12", seed, got)
			}
		})
		e.run(t) // includes CheckInvariants
	}
}

// The dead-home scenarios of home_chaos_test.go, on a page anchored at the
// origin: the origin is then the page's live anchor under both presets.

func TestDistChaosOriginAnchoredFaultWaitsForReclaim(t *testing.T) {
	e := newDistChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	originFaultOnDeadHome(t, e, addrAnchoredAt(t, e.m, 0))
}

func TestDistChaosReclaimFollowsDeadHomeForward(t *testing.T) {
	e := newDistChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(3 * time.Millisecond)}}})
	handedOffHomeDies(t, e, addrAnchoredAt(t, e.m, 0))
}

func TestDistChaosKilledLocalServeIsSettled(t *testing.T) {
	e := newDistChaosEnv(t, 3, killedLocalServePlan())
	killedLocalServe(t, e, addrAnchoredAt(t, e.m, 0))
}

func TestDistChaosSettleAfterReclaimRepointsRoute(t *testing.T) {
	e := newDistChaosEnv(t, 3, settleAfterReclaimPlan(5*time.Microsecond))
	settleAfterReclaim(t, e, addrAnchoredAt(t, e.m, 0))
}
