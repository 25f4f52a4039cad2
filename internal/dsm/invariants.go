package dsm

import (
	"bytes"
	"fmt"
	"sort"
)

// CheckInvariants verifies the protocol's global invariants. It is intended
// to be called when the simulation is quiescent (no transaction in flight):
//
//  1. Every directory entry is in a settled state (SharedRead or
//     ExclusiveWrite) consistent with its ownership record — no entry is
//     still in a transfer (busy) state.
//  2. An exclusive writer is the sole owner, its PTE is present and
//     writable, and no other node has the page present.
//  3. With no exclusive writer, the page's home is among the owners, every
//     owner has a present read-only (or home-writable pre-share) mapping,
//     every owner's frame is byte-identical, and no non-owner has the page.
//
// Under the sharded directory (HomeMigrate and DistributedManager) the
// entries live in per-node tables instead of the origin's tree;
// additionally each entry must be hosted at exactly one shard — its
// current home.
func (m *Manager) CheckInvariants() error {
	if m.sharded() {
		return m.checkInvariantsDist()
	}
	var err error
	m.dir.ForEach(func(vpn uint64, de *dirEntry) bool {
		err = m.checkEntry(vpn, de)
		return err == nil
	})
	return err
}

// checkInvariantsDist walks the sharded directory in node order: every
// entry must live in its home's own table, appear exactly once across all
// tables, and satisfy the per-entry invariants above.
func (m *Manager) checkInvariantsDist() error {
	seen := make(map[uint64]int)
	for n, ns := range m.nodes {
		for _, vpn := range sortedVPNs(ns.dir) {
			de := ns.dir[vpn]
			if prev, dup := seen[vpn]; dup {
				return fmt.Errorf("dsm: vpn %#x hosted at both shard %d and shard %d", vpn, prev, n)
			}
			seen[vpn] = n
			if de.home != n {
				return fmt.Errorf("dsm: vpn %#x hosted at shard %d but home is %d", vpn, n, de.home)
			}
			if err := m.checkEntry(vpn, de); err != nil {
				return err
			}
		}
	}
	return m.checkChainsTerminate()
}

// checkChainsTerminate verifies the forwarding graph has no cycles: from
// every node, following the route table (forwarding pointer if present,
// static anchor otherwise) must reach the shard hosting the page within one
// step per node. The epoch gate on route updates is what guarantees this;
// the check walks every route so a gating bug cannot hide. Chains through a
// confirmed-dead node are skipped — they are repaired when the death
// commits (ReclaimDeadNode), not before.
func (m *Manager) checkChainsTerminate() error {
	for n, ns := range m.nodes {
		for _, vpn := range sortedFwdVPNs(ns.fwd) {
			cur := n
			ok := false
			for step := 0; step <= len(m.nodes); step++ {
				if m.chaos != nil && m.chaos.NodeDead(cur) {
					ok = true // settled by the pending dead-node reclaim
					break
				}
				if _, hosted := m.nodes[cur].dir[vpn]; hosted {
					ok = true
					break
				}
				next, fwded := m.nodes[cur].fwd[vpn]
				if !fwded {
					next = m.shardOf(vpn)
					if next == cur {
						// Unrouted anchor without an entry: the page was
						// reclaimed or never materialized; the walk would
						// first-touch here.
						ok = true
						break
					}
				}
				if next == cur {
					return fmt.Errorf("dsm: vpn %#x route at node %d points at itself", vpn, cur)
				}
				cur = next
			}
			if !ok {
				return fmt.Errorf("dsm: vpn %#x forwarding chain from node %d does not terminate", vpn, n)
			}
		}
	}
	return nil
}

// sortedFwdVPNs is sortedVPNs for a route table.
func sortedFwdVPNs(fwd map[uint64]int) []uint64 {
	vpns := make([]uint64, 0, len(fwd))
	for vpn := range fwd {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	return vpns
}

// checkEntry verifies one directory entry against every node's page table.
func (m *Manager) checkEntry(vpn uint64, de *dirEntry) error {
	if de.busy() {
		return fmt.Errorf("dsm: vpn %#x still busy (state %v)", vpn, de.state)
	}
	if de.state != de.settledState() {
		return fmt.Errorf("dsm: vpn %#x state %v inconsistent with writer %d", vpn, de.state, de.writer)
	}
	if de.writer >= 0 {
		if de.owners != 1<<uint(de.writer) {
			return fmt.Errorf("dsm: vpn %#x writer %d but owners %#x", vpn, de.writer, de.owners)
		}
		// The writer must still hold the page. Its write bit may have
		// been stripped by an mprotect downgrade without changing DSM
		// ownership, so only presence is required.
		pte := m.nodes[de.writer].pt.Lookup(vpn)
		if pte == nil || !pte.Present || pte.Frame == nil {
			return fmt.Errorf("dsm: vpn %#x writer %d lost its mapping", vpn, de.writer)
		}
	} else if !de.has(de.home) {
		return fmt.Errorf("dsm: vpn %#x has no writer and home %d not an owner", vpn, de.home)
	}
	var ref []byte
	for n := range m.nodes {
		pte := m.nodes[n].pt.Lookup(vpn)
		present := pte != nil && pte.Present
		if de.has(n) != present {
			return fmt.Errorf("dsm: vpn %#x node %d directory says owner=%v but present=%v",
				vpn, n, de.has(n), present)
		}
		if !present {
			continue
		}
		if de.writer < 0 && pte.Writable && n != de.home {
			return fmt.Errorf("dsm: vpn %#x node %d writable without exclusive ownership", vpn, n)
		}
		if ref == nil {
			ref = pte.Frame
		} else if !bytes.Equal(ref, pte.Frame) {
			return fmt.Errorf("dsm: vpn %#x replicas diverge between owners", vpn)
		}
	}
	return nil
}
