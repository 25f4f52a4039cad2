// directory.go is the ownership-directory layer of the consistency
// protocol (§III-B): one dirEntry per touched page, keyed by virtual page
// number in the manager's radix tree. The entry is an explicit state
// machine — Invalid, SharedRead, ExclusiveWrite, plus the two in-transfer
// states a directory transaction moves through — and every legal transition
// is centralized here and invariant-checked on the way through. The
// protocol policies (protocol.go) decide WHICH transitions to take; the
// directory guarantees that only legal ones can happen, and panics (a
// protocol bug, never an application error) on any other.
package dsm

import (
	"fmt"

	"dex/internal/mem"
)

// PageState enumerates the coherence states of one page's directory entry.
type PageState uint8

const (
	// StateInvalid: no copy of the page exists anywhere. An entry is only
	// momentarily Invalid, between its creation and the first-touch
	// materialization at the page's home node.
	StateInvalid PageState = iota
	// StateSharedRead: one or more read replicas exist; the home node is
	// among the owners and its copy is fresh.
	StateSharedRead
	// StateExclusiveWrite: a single writer holds the only (writable) copy.
	StateExclusiveWrite
	// StateTransferShared: a directory transaction is in flight and the
	// underlying ownership is currently shared. Conflicting requests are
	// NACKed until the transaction ends.
	StateTransferShared
	// StateTransferExclusive: a directory transaction is in flight and a
	// writer still holds the page exclusively.
	StateTransferExclusive

	pageStateCount
)

func (s PageState) String() string {
	switch s {
	case StateInvalid:
		return "Invalid"
	case StateSharedRead:
		return "SharedRead"
	case StateExclusiveWrite:
		return "ExclusiveWrite"
	case StateTransferShared:
		return "TransferShared"
	case StateTransferExclusive:
		return "TransferExclusive"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Event enumerates the protocol events that drive a directory entry's state
// machine. Each event corresponds to exactly one mutating method on
// dirEntry; the (state × event) legality table below is the single source
// of truth for which transitions exist.
type Event uint8

const (
	// EvFirstTouch materializes a page at its home node: the home owns the
	// zero-filled page exclusively.
	EvFirstTouch Event = iota
	// EvBegin opens a directory transaction; the entry is busy until EvEnd
	// and conflicting requests are NACKed.
	EvBegin
	// EvEnd closes a directory transaction.
	EvEnd
	// EvDowngradeWriter demotes the home's own exclusive copy to a shared
	// one (the home keeps the page read-only).
	EvDowngradeWriter
	// EvPullHome revokes a remote exclusive writer and lands the fresh copy
	// at the home; the old writer optionally keeps a read replica.
	EvPullHome
	// EvGrantShared adds a read replica for the requester.
	EvGrantShared
	// EvGrantExclusive makes the requester the sole (writable) owner after
	// all other copies were revoked.
	EvGrantExclusive
	// EvDropOwner removes one non-home, non-writer replica from the owner
	// set (dead readers, rolled-back read grants, dead-node reclaim).
	EvDropOwner
	// EvReclaimHome returns a page whose exclusive writer is gone to the
	// home node (lost writers, rolled-back write grants, dead-node reclaim).
	EvReclaimHome
	// EvRehome moves the directory home of a page to a new node and makes
	// that node the sole owner (dead-shard rebuild: the old home died,
	// ownership is reclaimed at the page's live anchor shard).
	EvRehome
	// EvAdoptHome materializes directory authority at a node that has just
	// installed a migrated write grant (sharded directory only): the entry
	// is freshly constructed in the adopting node's shard table, with the
	// adopter as home and sole exclusive owner. The old home's copy of the
	// record is retired separately, behind a forwarding pointer.
	EvAdoptHome

	eventCount
)

func (e Event) String() string {
	switch e {
	case EvFirstTouch:
		return "FirstTouch"
	case EvBegin:
		return "Begin"
	case EvEnd:
		return "End"
	case EvDowngradeWriter:
		return "DowngradeWriter"
	case EvPullHome:
		return "PullHome"
	case EvGrantShared:
		return "GrantShared"
	case EvGrantExclusive:
		return "GrantExclusive"
	case EvDropOwner:
		return "DropOwner"
	case EvReclaimHome:
		return "ReclaimHome"
	case EvRehome:
		return "Rehome"
	case EvAdoptHome:
		return "AdoptHome"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// legalTransitions is the (state × event) legality table. A transition
// absent here is a protocol bug and is rejected with a panic, never
// silently absorbed.
var legalTransitions = [pageStateCount][eventCount]bool{
	StateInvalid: {
		EvFirstTouch: true,
		EvAdoptHome:  true, // install-time authority adoption (sharded directory)
	},
	StateSharedRead: {
		EvBegin:     true,
		EvDropOwner: true, // dead-node reclaim outside a transaction
		EvRehome:    true, // dead-home reclaim outside a transaction
	},
	StateExclusiveWrite: {
		EvBegin:       true,
		EvDropOwner:   true, // no-op mask clear during dead-node reclaim
		EvReclaimHome: true, // dead writer found outside a transaction
		EvRehome:      true, // dead-home reclaim outside a transaction
	},
	StateTransferShared: {
		EvEnd:            true,
		EvGrantShared:    true,
		EvGrantExclusive: true,
		EvDropOwner:      true, // dead readers, read-grant rollback
		EvRehome:         true, // dead-home recovery during a serve
	},
	StateTransferExclusive: {
		EvEnd:             true,
		EvDowngradeWriter: true,
		EvPullHome:        true,
		EvGrantExclusive:  true, // ownership hand-off writer→writer
		EvDropOwner:       true, // no-op mask clear on a dead non-owner
		EvReclaimHome:     true, // lost writer, write-grant rollback
		EvRehome:          true, // dead-home recovery during a serve
	},
}

// LegalTransition reports whether ev is a legal protocol event for a
// directory entry in state s.
func LegalTransition(s PageState, ev Event) bool {
	if s >= pageStateCount || ev >= eventCount {
		return false
	}
	return legalTransitions[s][ev]
}

// dirEntry is a page's ownership record: its coherence state, its home node
// (the node whose directory partition serves transactions for it — always
// the origin under WriteInvalidate, the last writer under the sharded
// directory), the owner bitmask, and the exclusive writer (or -1).
type dirEntry struct {
	state  PageState
	home   int
	owners uint64 // bitmask of nodes holding a valid copy
	writer int    // exclusive owner, or -1
	// epoch counts home handoffs under the sharded directory (zero under
	// WriteInvalidate).
	// Every piece of routing information — grant replies, redirects,
	// revocation-carried hints, compression hints — is stamped with the
	// epoch of the home it names, and nodes reject updates older than what
	// they already believe. Because a handoff strictly increases the epoch,
	// forwarding pointers form an acyclic graph and every chain walk
	// terminates.
	epoch uint64
}

func newDirEntry(home int) *dirEntry {
	return &dirEntry{state: StateInvalid, home: home, writer: -1}
}

func (d *dirEntry) has(node int) bool { return d.owners&(1<<uint(node)) != 0 }

// busy reports whether a directory transaction is in flight for this page.
func (d *dirEntry) busy() bool {
	return d.state == StateTransferShared || d.state == StateTransferExclusive
}

func (d *dirEntry) ownerList(exclude int) []int {
	var out []int
	for n := 0; n < 64; n++ {
		if n != exclude && d.owners&(1<<uint(n)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// step gates one protocol event through the legality table.
func (d *dirEntry) step(ev Event) {
	if !LegalTransition(d.state, ev) {
		panic(fmt.Sprintf("dsm: illegal directory transition %v in state %v (owners=%#x writer=%d home=%d)",
			ev, d.state, d.owners, d.writer, d.home))
	}
}

// transferState is the in-transfer state matching the current ownership.
func (d *dirEntry) transferState() PageState {
	if d.writer >= 0 {
		return StateTransferExclusive
	}
	return StateTransferShared
}

// settledState is the quiescent state matching the current ownership.
func (d *dirEntry) settledState() PageState {
	if d.writer >= 0 {
		return StateExclusiveWrite
	}
	return StateSharedRead
}

// firstTouch materializes the page at its home: the home owns the
// zero-filled page exclusively. The caller maps the home's frame.
func (d *dirEntry) firstTouch() {
	d.step(EvFirstTouch)
	d.owners = 1 << uint(d.home)
	d.writer = d.home
	d.state = StateExclusiveWrite
	d.check()
}

// begin opens a directory transaction (the entry goes busy).
func (d *dirEntry) begin() {
	d.step(EvBegin)
	d.state = d.transferState()
	d.check()
}

// end closes a directory transaction.
func (d *dirEntry) end() {
	d.step(EvEnd)
	d.state = d.settledState()
	d.check()
}

// downgradeWriter demotes the home's own exclusive copy to a shared one.
func (d *dirEntry) downgradeWriter() {
	d.step(EvDowngradeWriter)
	if d.writer != d.home {
		panic(fmt.Sprintf("dsm: downgradeWriter with writer %d != home %d", d.writer, d.home))
	}
	d.writer = -1
	d.state = StateTransferShared
	d.check()
}

// pullHome lands the fresh copy of a remotely-written page at the home.
// With keepShared the old writer retains a read replica.
func (d *dirEntry) pullHome(keepShared bool) {
	d.step(EvPullHome)
	if d.writer == d.home {
		panic(fmt.Sprintf("dsm: pullHome from the home node %d itself", d.home))
	}
	w := d.writer
	d.writer = -1
	d.owners = 1 << uint(d.home)
	if keepShared {
		d.owners |= 1 << uint(w)
	}
	d.state = StateTransferShared
	d.check()
}

// grantShared adds a read replica for node.
func (d *dirEntry) grantShared(node int) {
	d.step(EvGrantShared)
	d.owners |= 1 << uint(node)
	d.check()
}

// grantExclusive makes node the sole writable owner; the caller must have
// revoked every other copy already.
func (d *dirEntry) grantExclusive(node int) {
	d.step(EvGrantExclusive)
	d.owners = 1 << uint(node)
	d.writer = node
	d.state = StateTransferExclusive
	d.check()
}

// dropOwner removes node's replica from the owner set. Dropping the home or
// the exclusive writer is illegal (those go through reclaimHome).
func (d *dirEntry) dropOwner(node int) {
	d.step(EvDropOwner)
	if node == d.home {
		panic(fmt.Sprintf("dsm: dropOwner would drop the home node %d", node))
	}
	if node == d.writer {
		panic(fmt.Sprintf("dsm: dropOwner would drop the exclusive writer %d", node))
	}
	d.owners &^= 1 << uint(node)
	d.check()
}

// reclaimHome returns a page whose exclusive writer is gone to the home
// node. The caller maps the home's replacement frame.
func (d *dirEntry) reclaimHome() {
	d.step(EvReclaimHome)
	d.writer = -1
	d.owners = 1 << uint(d.home)
	if d.busy() {
		d.state = StateTransferShared
	} else {
		d.state = StateSharedRead
	}
	d.check()
}

// rehome moves the directory home to newHome and makes it the sole owner
// of the (replacement) copy. Used by the dead-shard rebuild: the previous
// home died, so the page's live anchor shard takes the page back. The caller
// maps newHome's replacement frame and scrubs every other node's PTE.
func (d *dirEntry) rehome(newHome int) {
	d.step(EvRehome)
	d.home = newHome
	d.owners = 1 << uint(newHome)
	d.writer = -1
	if d.busy() {
		d.state = StateTransferShared
	} else {
		d.state = StateSharedRead
	}
	d.check()
}

// adoptHome materializes directory authority for a freshly migrated write
// grant at node (sharded directory): the adopter becomes home and sole
// exclusive owner. The caller has already installed the granted frame.
func (d *dirEntry) adoptHome(node int) {
	d.step(EvAdoptHome)
	d.home = node
	d.owners = 1 << uint(node)
	d.writer = node
	d.state = StateExclusiveWrite
	d.check()
}

// check verifies the structural invariant of the entry's current state.
func (d *dirEntry) check() {
	bad := ""
	switch d.state {
	case StateSharedRead:
		switch {
		case d.writer >= 0:
			bad = "shared entry has a writer"
		case d.owners == 0:
			bad = "shared entry has no owners"
		case !d.has(d.home):
			bad = "shared entry lost its home copy"
		}
	case StateExclusiveWrite:
		switch {
		case d.writer < 0:
			bad = "exclusive entry has no writer"
		case d.owners != 1<<uint(d.writer):
			bad = "exclusive entry has co-owners"
		}
	case StateTransferShared:
		switch {
		case d.writer >= 0:
			bad = "shared transfer has a writer"
		case !d.has(d.home):
			bad = "shared transfer lost its home copy"
		}
	case StateTransferExclusive:
		switch {
		case d.writer < 0:
			bad = "exclusive transfer has no writer"
		case d.owners != 1<<uint(d.writer):
			bad = "exclusive transfer has co-owners"
		}
	}
	if bad != "" {
		panic(fmt.Sprintf("dsm: directory invariant violated: %s (state=%v owners=%#x writer=%d home=%d)",
			bad, d.state, d.owners, d.writer, d.home))
	}
}

// entry returns the directory entry for vpn, creating the initial record on
// first touch: the home (initially the origin) owns every page exclusively
// and its zero-filled frame is materialized immediately so that the
// directory invariant — the home's copy is up to date unless a remote holds
// the page exclusively — holds from the start.
func (m *Manager) entry(vpn uint64) (*dirEntry, bool) {
	created := false
	de, _ := m.dir.GetOrCreate(vpn, func() *dirEntry {
		created = true
		m.nodes[m.origin].pt.SetAccess(vpn, m.pool(m.origin).GetZeroed(), mem.AccessWrite)
		d := newDirEntry(m.origin)
		d.firstTouch()
		return d
	})
	return de, created
}

// frameAt returns node's current frame for vpn. It panics if the node has
// no fresh copy, which would be a protocol invariant violation.
func (m *Manager) frameAt(node int, vpn uint64) []byte {
	pte := m.nodes[node].pt.Lookup(vpn)
	if pte == nil || pte.Frame == nil {
		panic(fmt.Sprintf("dsm: copy of vpn %#x at node %d is stale", vpn, node))
	}
	return pte.Frame
}
