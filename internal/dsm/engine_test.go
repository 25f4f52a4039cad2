package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// TestChaosDedupStateStaysBounded drives thousands of deduplicated
// transactions through a lossy, duplicating fabric and checks that the
// chaos-only dedup maps — the home's served-token records, and each node's
// completed-install and applied-revocation records — are pruned by the
// watermark sweep instead of growing with the run. Before the sweep existed
// these maps kept one entry per token/seq forever.
func TestChaosDedupStateStaysBounded(t *testing.T) {
	plan := &chaos.Plan{
		Seed: 11,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.05}},
		Dup:  []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.3}},
	}
	params := DefaultParams()
	// Shrink the RTO so the retransmit horizon (4×RetryTimeoutMax) passes
	// many times within the run; the sweep logic under test is unchanged.
	params.RetryTimeout = 50 * time.Microsecond
	params.RetryTimeoutMax = 200 * time.Microsecond
	e := newChaosEnvParams(t, 3, plan, params)

	const iters = 1500
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < iters; i++ {
			// Three pages with alternating writers: the odd stride keeps
			// node and page parity decorrelated, so every write faults.
			node := 1 + i%2
			addr := testAddr + mem.Addr(i%3*mem.PageSize)
			e.write(tk, node, addr, byte(i))
			if got := e.read(tk, node, addr); got != byte(i) {
				t.Errorf("iter %d: read back %d, want %d", i, got, byte(i))
				return
			}
			tk.Sleep(20 * time.Microsecond)
		}
	})
	e.run(t)

	eng := &e.m.e
	var tokens, seqs, served uint64
	for _, ns := range e.m.nodes {
		tokens += ns.reqCtr
		seqs += ns.revCtr
		served += uint64(len(ns.served))
	}
	if tokens < iters {
		t.Fatalf("allocated %d tokens; the workload should have allocated at least %d", tokens, iters)
	}
	if seqs < iters/2 {
		t.Fatalf("allocated %d revoke seqs, want at least %d", seqs, iters/2)
	}
	// Every node that allocated tokens must have had its per-node watermark
	// advanced by the sweep.
	for i, ns := range e.m.nodes {
		if ns.reqCtr > 0 && eng.prunedReqBelow[i] == 0 {
			t.Fatalf("node %d request watermark never advanced (%d tokens allocated)", i, ns.reqCtr)
		}
		if ns.revCtr > 0 && eng.prunedRevokeBelow[i] == 0 {
			t.Fatalf("node %d revoke watermark never advanced (%d seqs allocated)", i, ns.revCtr)
		}
	}
	// The bound: one sweep interval of fresh admissions plus the horizon's
	// worth of still-warm records. An unpruned map would hold one record
	// per token — over twice this.
	const bound = 700
	if served >= bound {
		t.Errorf("served maps hold %d records after %d tokens; pruning is not bounding them", served, tokens)
	}
	for i, ns := range e.m.nodes {
		if n := len(ns.completed); n >= bound {
			t.Errorf("node %d completed map holds %d records; want < %d", i, n, bound)
		}
		if n := len(ns.appliedRevokes); n >= bound {
			t.Errorf("node %d appliedRevokes map holds %d records; want < %d", i, n, bound)
		}
	}
	// Pruning must not have cost correctness: the run above already checked
	// every read; duplicates kept arriving throughout and were all absorbed.
	if e.m.Stats().DupsIgnored == 0 {
		t.Errorf("DupsIgnored = 0 with a 30%% duplication rate; dedup never engaged")
	}
}
