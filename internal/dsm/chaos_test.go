package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// newChaosEnv is newEnv with a fault injector attached to the fabric before
// the manager is created (mirroring core's wiring order).
func newChaosEnv(t *testing.T, nodes int, plan *chaos.Plan) *env {
	t.Helper()
	return newChaosEnvParams(t, nodes, plan, DefaultParams())
}

// newChaosEnvParams is newChaosEnv with a caller-supplied cost model and
// protocol.
func newChaosEnvParams(t *testing.T, nodes int, plan *chaos.Plan, params Params) *env {
	t.Helper()
	return wireEnv(t, 1, nodes, params, plan)
}

// mixedWorkload shuttles two pages between three nodes so that every
// protocol message class (request, reply with and without data, install
// ack, revoke with and without data, revoke ack) is exercised.
func mixedWorkload(e *env, tk *sim.Task) (got [4]byte) {
	addrA, addrB := testAddr, testAddr+mem.Addr(mem.PageSize)
	e.write(tk, 0, addrA, 10) // first touch at origin
	e.write(tk, 0, addrB, 20)
	e.write(tk, 1, addrA, 11) // pull A exclusive to node 1
	got[0] = e.read(tk, 2, addrA)
	e.write(tk, 2, addrA, 12) // revoke node 1's and origin's copies
	got[1] = e.read(tk, 0, addrA)
	got[2] = e.read(tk, 1, addrB)
	e.write(tk, 1, addrB, 21) // ownership upgrade at node 1
	got[3] = e.read(tk, 2, addrB)
	return got
}

func checkMixed(t *testing.T, got [4]byte) {
	t.Helper()
	want := [4]byte{11, 12, 20, 21}
	if got != want {
		t.Fatalf("workload read %v, want %v", got, want)
	}
}

func TestChaosDropRecoversByRetransmission(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 3,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.4}},
	}
	e := newChaosEnv(t, 3, plan)
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

func TestChaosDuplicatesAreIdempotent(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 5,
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 1}},
	}
	e := newChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
	if st := e.m.Stats(); st.DupsIgnored == 0 {
		t.Fatalf("DupsIgnored = 0 with every message duplicated (stats: %+v)", st)
	}
}

func TestChaosDropAndDupTogether(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  9,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.25}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(30 * time.Microsecond)}},
	}
	e := newChaosEnv(t, 3, plan)
	var got [4]byte
	e.eng.Spawn("main", func(tk *sim.Task) { got = mixedWorkload(e, tk) })
	e.run(t)
	checkMixed(t, got)
}

func TestChaosRunsAreDeterministic(t *testing.T) {
	plan := &chaos.Plan{
		Seed:  7,
		Drop:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Dup:   []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
		Delay: []chaos.DelayRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.5, Jitter: chaos.Duration(20 * time.Microsecond)}},
	}
	run := func() (Stats, chaos.Stats, time.Duration) {
		e := newChaosEnv(t, 3, plan)
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

func TestChaosCrashReclaimsOwnership(t *testing.T) {
	e := newChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	addrA, addrB := testAddr, testAddr+mem.Addr(mem.PageSize)
	var afterA, afterB byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, addrA, 7)
		e.write(tk, 1, addrA, 9) // node 1 becomes the exclusive writer
		afterB = e.read(tk, 1, addrB)
		// Crash node 1 the way core does: mark it dead, then reclaim.
		e.net.Chaos().MarkDead(1)
		lost, err := e.m.ReclaimDeadNode(1)
		if err != nil {
			t.Errorf("ReclaimDeadNode: %v", err)
		}
		if len(lost) != 1 {
			t.Errorf("ReclaimDeadNode = %d pages lost, want 1", len(lost))
		}
		// The page's only fresh copy died with node 1: it reads back
		// zero-filled at the origin, and stays writable by the survivors.
		afterA = e.read(tk, 0, addrA)
		e.write(tk, 2, addrA, 5)
	})
	e.run(t)
	if afterB != 0 {
		t.Fatalf("node 1 read %d from untouched page, want 0", afterB)
	}
	if afterA != 0 {
		t.Fatalf("origin read %d from lost page, want 0 (zero-filled)", afterA)
	}
	if st := e.m.Stats(); st.PagesLost != 1 {
		t.Fatalf("PagesLost = %d, want 1", st.PagesLost)
	}
}

func TestChaosDeadWriterDetectedDuringFetch(t *testing.T) {
	e := newChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // node 1 holds the page exclusively
		// Let the install ack land before the crash, so the grant is fully
		// settled and the loss is detected in the fetch path (a crash during
		// the transition window is rolled back instead — see the rollback
		// test below).
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		// A survivor's read must not hang on the dead writer: the origin
		// detects the death in its fetch path and serves zeros.
		got = e.read(tk, 2, testAddr)
		e.m.ReclaimDeadNode(1)
	})
	e.run(t)
	if got != 0 {
		t.Fatalf("read from lost page = %d, want 0", got)
	}
	if st := e.m.Stats(); st.PagesLost != 1 {
		t.Fatalf("PagesLost = %d, want 1", st.PagesLost)
	}
}

func TestChaosDeadRequesterRollsBackGrant(t *testing.T) {
	// All origin->node1 traffic is dropped, so the write grant for node 1
	// never lands; node 1 then crashes mid-transaction. The origin must
	// detect the death on its install-ack timeout, roll the grant back, and
	// keep the page (and its contents) reachable for the survivors.
	plan := &chaos.Plan{
		Seed: 1,
		Drop: []chaos.LinkRule{{Src: 0, Dst: 1, Prob: 1, To: chaos.Duration(50 * time.Millisecond)}},
	}
	e := newChaosEnv(t, 3, plan)
	var got byte
	var victim *sim.Task
	e.eng.Spawn("setup", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
	})
	victim = e.eng.SpawnAfter("doomed-writer", 100*time.Microsecond, func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 9) // grant is dropped; retransmits forever
	})
	e.eng.SpawnAfter("controller", 2*time.Millisecond, func(tk *sim.Task) {
		victim.Kill()
		e.net.Chaos().MarkDead(1)
		tk.Sleep(20 * time.Millisecond) // let the origin's timeout fire
		got = e.read(tk, 0, testAddr)
		e.m.ReclaimDeadNode(1)
	})
	e.run(t)
	if got != 7 {
		t.Fatalf("origin read %d after rollback, want the pre-grant contents 7", got)
	}
	st := e.m.Stats()
	if st.Retransmits == 0 {
		t.Fatalf("Retransmits = 0, want >0 (stats: %+v)", st)
	}
	if st.PagesLost != 0 {
		t.Fatalf("PagesLost = %d, want 0: the origin retained a data snapshot", st.PagesLost)
	}
}
