package dsm

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/sim"
)

func homeParams() Params {
	p := DefaultParams()
	p.Protocol = HomeMigrate
	return p
}

func TestParseProtocol(t *testing.T) {
	cases := map[string]Protocol{
		"wi": WriteInvalidate, "write-invalidate": WriteInvalidate,
		"home": HomeMigrate, "home-migrate": HomeMigrate,
		"dist": DistributedManager, "distributed-manager": DistributedManager,
	}
	for s, want := range cases {
		got, err := ParseProtocol(s)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"mesi", "", "dist ", "DIST"} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted an unknown name", bad)
		}
	}
	if WriteInvalidate.String() != "write-invalidate" || HomeMigrate.String() != "home-migrate" ||
		DistributedManager.String() != "distributed-manager" {
		t.Errorf("protocol names: %v, %v, %v", WriteInvalidate, HomeMigrate, DistributedManager)
	}
}

// TestProtocolRegistryDrivesHelp: the flag help and the accepted-names list
// are derived from the same registry that ParseProtocol consults, so every
// advertised name must round-trip and the help must mention each of them.
func TestProtocolRegistryDrivesHelp(t *testing.T) {
	names := ProtocolNames()
	if len(names) < 6 { // three protocols, short and long name each
		t.Fatalf("ProtocolNames() = %v; expected both spellings of all three protocols", names)
	}
	help := ProtocolHelp()
	for _, name := range names {
		if _, err := ParseProtocol(name); err != nil {
			t.Errorf("advertised name %q does not parse: %v", name, err)
		}
		if !strings.Contains(help, name) {
			t.Errorf("ProtocolHelp() omits advertised name %q:\n%s", name, help)
		}
	}
}

func TestManagerReportsProtocol(t *testing.T) {
	if p := newEnv(t, 2, DefaultParams()).m.Protocol(); p != WriteInvalidate {
		t.Fatalf("default protocol = %v", p)
	}
	if p := newEnv(t, 2, homeParams()).m.Protocol(); p != HomeMigrate {
		t.Fatalf("home params protocol = %v", p)
	}
}

// TestHomeMigrateFollowsWriter checks the policy's defining move: after a
// remote node takes a page exclusively, the directory home is that node
// (the entry lives in its shard table), and the origin — every page's
// anchor — holds a forwarding pointer to it.
func TestHomeMigrateFollowsWriter(t *testing.T) {
	e := newEnv(t, 3, homeParams())
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 42)
	})
	e.run(t)
	vpn := testAddr.VPN()
	de := e.m.distEntry(vpn)
	if de == nil {
		t.Fatal("no directory entry after the write")
	}
	if de.home != 1 || de.writer != 1 {
		t.Fatalf("home = %d, writer = %d; want both 1 after a remote write", de.home, de.writer)
	}
	if e.m.nodes[1].dir[vpn] != de {
		t.Fatal("entry not hosted in the writer's shard table")
	}
	if fw, ok := e.m.nodes[0].fwd[vpn]; !ok || fw != 1 {
		t.Fatalf("origin's forwarding pointer = %d (set %v), want 1", fw, ok)
	}
}

// TestHomeMigrateRedirectRepairsStaleHint sends a reader with no route to
// the origin after the home has moved away: the origin must forward (not
// serve), the reader must land at the real home, read the right data, and
// come away with a route to it.
func TestHomeMigrateRedirectRepairsStaleHint(t *testing.T) {
	e := newEnv(t, 3, homeParams())
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 42) // home migrates to node 1
		got = e.read(tk, 2, testAddr)
	})
	e.run(t)
	if got != 42 {
		t.Fatalf("read after redirect = %d, want 42", got)
	}
	vpn := testAddr.VPN()
	if fw, ok := e.m.nodes[2].fwd[vpn]; !ok || fw != 1 {
		t.Fatalf("reader's route = %d (set %v), want 1 (learned from the redirect)", fw, ok)
	}
	if st := e.m.Stats(); st.Forwards == 0 {
		t.Fatalf("Forwards = 0; the origin served instead of forwarding (stats: %+v)", st)
	}
	de := e.m.distEntry(vpn)
	if de.home != 1 || de.writer != -1 || !de.has(1) || !de.has(2) {
		t.Fatalf("entry after redirected read: home=%d writer=%d owners=%#x", de.home, de.writer, de.owners)
	}
}

// TestHomeMigrateWriterLocalFaults: once the home follows a writer,
// that node's repeated faults on its pages resolve through the local
// directory with no request messages at all.
func TestHomeMigrateWriterLocalFaults(t *testing.T) {
	e := newEnv(t, 2, homeParams())
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 1) // home moves to node 1
		_ = e.read(tk, 0, testAddr) // origin takes a shared copy back
		before := e.net.Stats().SmallSends
		e.write(tk, 1, testAddr, 2) // upgrade served by node 1's own directory
		if sends := e.net.Stats().SmallSends - before; sends != 2 {
			// Exactly one revoke + one revoke-ack for the origin's replica;
			// no page request, no grant reply, no install ack.
			t.Errorf("local upgrade used %d small messages, want 2 (revoke round trip only)", sends)
		}
	})
	e.run(t)
}

// pingPong bounces exclusive ownership of one page between nodes 1 and 2 —
// the write-local pattern HomeMigrate exists for. Returns elapsed virtual
// time.
func pingPong(t *testing.T, params Params, iters int) (Stats, fabric.Stats, time.Duration) {
	t.Helper()
	e := newEnv(t, 3, params)
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < iters; i++ {
			e.write(tk, 1+i%2, testAddr, byte(i))
		}
	})
	e.run(t)
	return e.m.Stats(), e.net.Stats(), e.eng.Now()
}

// TestHomeMigrateCutsOriginTraffic is the policy's benefit proof: on an
// ownership ping-pong between two non-origin nodes, WriteInvalidate routes
// every transaction through the origin and pulls the page home each time
// (two page transfers per fault), while HomeMigrate serves each fault at the
// current writer directly (one transfer) once the hints settle.
func TestHomeMigrateCutsOriginTraffic(t *testing.T) {
	const iters = 40
	wiStats, wiNet, wiElapsed := pingPong(t, DefaultParams(), iters)
	hmStats, hmNet, hmElapsed := pingPong(t, homeParams(), iters)
	if wiStats.PageTransfers == 0 {
		t.Fatalf("write-invalidate pulled no pages home: %+v", wiStats)
	}
	if hmStats.PageTransfers != 0 {
		t.Fatalf("home-migrate PageTransfers = %d, want 0 (the home IS the writer)", hmStats.PageTransfers)
	}
	if hmNet.PageSends >= wiNet.PageSends {
		t.Fatalf("page sends: home-migrate %d, write-invalidate %d; want fewer", hmNet.PageSends, wiNet.PageSends)
	}
	if hmElapsed >= wiElapsed {
		t.Fatalf("elapsed: home-migrate %v, write-invalidate %v; want faster", hmElapsed, wiElapsed)
	}
}

// TestHomeMigrateSequentialRandomOps re-runs the serial-history correctness
// drive under the second policy: every read observes the most recent write
// and the global invariants hold at quiescence.
func TestHomeMigrateSequentialRandomOps(t *testing.T) {
	const nodes = 4
	e := newEnv(t, nodes, homeParams())
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
	e.run(t) // includes CheckInvariants
}

// TestHomeMigrateConcurrentInvariants stresses concurrent accessors (races,
// NACK/backoff, home re-checks after backoff) under the second policy.
func TestHomeMigrateConcurrentInvariants(t *testing.T) {
	const nodes = 4
	for seed := int64(1); seed <= 3; seed++ {
		p := homeParams()
		e := newEnvSeed(t, nodes, p, seed)
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
			e.eng.Spawn("stress", func(tk *sim.Task) {
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

// TestHomeMigratePrefetchBouncesMigratedPages: the batched prefetch hint is
// served by the origin, which cannot speak for pages whose home moved away;
// those must bounce (best effort) and demand faulting must still work.
func TestHomeMigratePrefetchBounce(t *testing.T) {
	e := newEnv(t, 3, homeParams())
	addrB := testAddr + mem.Addr(mem.PageSize)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7) // stays home at the origin
		e.write(tk, 1, addrB, 8)    // home migrates to node 1
		n, err := e.m.Prefetch(tk, Ctx{Node: 2}, prefetchVPNs(testAddr, 2))
		if err != nil {
			t.Errorf("Prefetch: %v", err)
		}
		if n != 1 {
			t.Errorf("Prefetch granted %d pages, want 1 (migrated page must bounce)", n)
		}
		if got := e.read(tk, 2, addrB); got != 8 {
			t.Errorf("demand read of bounced page = %d, want 8", got)
		}
	})
	e.run(t)
}

// TestHomeMigrateAcceptsChaos pins the removal of the old construction-time
// guard: home-migrate's recovery paths are hardened against fault injection
// (retransmission, dead-home failover, rehoming), so a manager with an
// injector attached must construct and serve traffic normally.
func TestHomeMigrateAcceptsChaos(t *testing.T) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	net.SetChaos(chaos.NewInjector(&chaos.Plan{
		Seed: 1,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}},
	}, 2))
	if _, panicked := panics(func() { New(eng, net, homeParams(), 1, 0, 2) }); panicked {
		t.Fatal("New rejected home-migrate with a chaos injector attached")
	}
}
