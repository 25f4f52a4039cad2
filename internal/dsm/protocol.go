// protocol.go is the coherence-policy layer: the pluggable piece that
// decides WHERE a fault resolves and WHAT a directory transaction does. The
// directory (directory.go) owns the per-page state machine and the engine
// (engine.go) owns reliable delivery; a policy composes the two.
//
// Two policies implement the three protocols. writeInvalidate is the
// paper's §III-B design: the origin node serves every transaction, read
// requests earn shared replicas, write requests earn exclusive ownership
// after every other copy is revoked. distManager keeps the same MRSW
// coherence but migrates a page's directory authority to its last writer,
// so a node that writes the same pages repeatedly resolves later
// transactions locally instead of paying the origin round trip on every
// ownership change. Its per-page entries live in per-node shard tables and
// lookups start at an anchor shard; the HomeMigrate and DistributedManager
// presets differ only in where that anchor is (shardOf).
package dsm

import (
	"fmt"
	"time"

	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Protocol selects the coherence policy of a Manager.
type Protocol int

const (
	// WriteInvalidate is the paper's origin-served read-replicate /
	// write-invalidate protocol (§III-B). It is the default.
	WriteInvalidate Protocol = iota
	// HomeMigrate is the ownership-migration variant: the directory home of
	// a page follows its last writer, cutting origin round trips for
	// write-local access patterns. It is the origin-anchored preset of the
	// sharded directory: every page's lookup anchor is the origin, which
	// forwards requests for migrated pages to their current home. Under
	// fault injection a dead home's entries are rebuilt at the origin once
	// the lease layer declares the node dead.
	HomeMigrate
	// DistributedManager is the hash-anchored preset of the same sharded
	// directory: a page's lookup anchor is a static hash of its VPN, so the
	// origin is just another shard. Directory authority follows the last
	// writer (as under HomeMigrate), and nodes that hand authority off leave
	// forwarding pointers behind. Lookup chains are collapsed to at most one
	// hop by path-compression hints after each migrated grant. A crashed
	// shard's directory slice is rebuilt from owner-side ground truth at each
	// page's live anchor. Like HomeMigrate, every shard serves on its own
	// simulation lane, so the policy runs parallel.
	DistributedManager
)

// homeBusyPoll is how often a fault at a page's own home re-checks a busy
// directory entry. The transaction holding the entry completes with a local
// event, so this is a short spin interval, not a congestion backoff.
const homeBusyPoll = 5 * time.Microsecond

// protocolInfo is one registry row: the canonical short name accepted on
// the command line, the long name (also accepted, and printed by String),
// and a one-line description for help text.
type protocolInfo struct {
	proto Protocol
	name  string // short CLI name
	long  string // canonical long name
	desc  string
}

// protocolRegistry is the single source of truth for the policies a
// Manager can run: ParseProtocol, the -protocol help text of every command,
// and Protocol.String all derive from it. Adding a policy means adding a
// row here plus a case in newPolicy.
var protocolRegistry = []protocolInfo{
	{WriteInvalidate, "wi", "write-invalidate", "origin-served read-replicate/write-invalidate (default)"},
	{HomeMigrate, "home", "home-migrate", "directory home follows the last writer"},
	{DistributedManager, "dist", "distributed-manager", "hash-sharded directory with forwarding chains"},
}

func (p Protocol) String() string {
	for _, pi := range protocolRegistry {
		if pi.proto == p {
			return pi.long
		}
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ProtocolNames lists every name ParseProtocol accepts: the short CLI name
// and the long name of each registered policy, in registry order.
func ProtocolNames() []string {
	names := make([]string, 0, 2*len(protocolRegistry))
	for _, pi := range protocolRegistry {
		names = append(names, pi.name, pi.long)
	}
	return names
}

// ProtocolHelp renders the -protocol flag help text from the registry, so
// every command's usage string stays in sync with the policies that exist.
func ProtocolHelp() string {
	s := "coherence protocol: "
	for i, pi := range protocolRegistry {
		if i > 0 {
			s += " | "
		}
		s += pi.name + " (" + pi.long + ")"
	}
	return s
}

// ParseProtocol resolves a protocol name as accepted by dexrun -protocol:
// either the short or the long name of any registered policy.
func ParseProtocol(s string) (Protocol, error) {
	for _, pi := range protocolRegistry {
		if s == pi.name || s == pi.long {
			return pi.proto, nil
		}
	}
	names := ""
	for i, pi := range protocolRegistry {
		if i > 0 {
			names += ", "
		}
		names += pi.name
	}
	return 0, fmt.Errorf("dsm: unknown protocol %q (want one of %s)", s, names)
}

// policy is the pluggable coherence layer. The Manager routes every fault
// and every incoming page request through it; the directory entry methods
// it calls enforce transition legality.
type policy interface {
	// proto identifies the policy.
	proto() Protocol
	// leadFault runs the full protocol for one lead fault at ctx.Node. It
	// reports the number of retries and whether the consistency protocol was
	// actually involved (a first-touch demand-zero fault at the page's home
	// is not a protocol fault).
	leadFault(t *sim.Task, ctx Ctx, vpn uint64, write bool) (retries int, protocol bool)
	// requestTarget returns the node a page request from node should be sent
	// to (the believed home of vpn).
	requestTarget(node int, vpn uint64) int
	// fallbackHome returns where a request from node re-routes after its
	// believed home is confirmed dead: the origin under WriteInvalidate, the
	// page's live anchor shard under the sharded directory.
	fallbackHome(node int, vpn uint64) int
	// learnHome records at node a belief about vpn's home, stamped with the
	// home-handoff epoch it was learned at, and reports whether the update
	// was applied. The sharded directory rejects updates older than the
	// route the node already holds (unless that route's target is confirmed
	// dead), which keeps the forwarding graph acyclic; WriteInvalidate keeps
	// no routes.
	learnHome(node int, vpn uint64, home int, epoch uint64) bool
	// serveEntry resolves the directory entry a serve transaction at home
	// operates on, materializing it on first touch. It returns nil if the
	// serving node's authority moved away between dispatch and serve
	// (sharded directory only) — the caller bounces the request.
	serveEntry(home int, vpn uint64) *dirEntry
	// grantInstalled runs at the requester right after a granted PTE is
	// installed and before the install ack is sent (the sharded directory's
	// authority-adoption point for write grants). epoch is the routing epoch
	// the grant reply carried.
	grantInstalled(node int, vpn uint64, write bool, served int, epoch uint64)
	// compressChain lets the policy collapse the forwarding chain a request
	// walked: hops lists the nodes that redirected it, home is where the
	// grant was finally served (or the requester itself for a write), epoch
	// the handoff epoch at which home holds the page.
	compressChain(t *sim.Task, node int, vpn uint64, hops []int, home int, epoch uint64)
	// dispatchRequest routes a page request delivered at node: serve it
	// there, or redirect the requester toward the authoritative home.
	dispatchRequest(node int, req *pageRequest)
	// serveRead and serveWrite perform one directory transaction for reqNode
	// with the entry in transfer (busy) state; they return whether the grant
	// carries page data, and the data.
	serveRead(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (withData bool, data []byte)
	serveWrite(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (withData bool, data []byte)
	// grantCompleted runs once the requester's install ack closes a remote
	// grant (the sharded directory's home-handoff point).
	grantCompleted(de *dirEntry, req *pageRequest)
}

func newPolicy(m *Manager) policy {
	switch m.params.Protocol {
	case WriteInvalidate:
		return &writeInvalidate{m: m}
	case HomeMigrate, DistributedManager:
		for _, ns := range m.nodes {
			ns.dir = make(map[uint64]*dirEntry)
			ns.fwd = make(map[uint64]int)
			ns.routeEpoch = make(map[uint64]uint64)
		}
		return &distManager{m: m}
	default:
		panic(fmt.Sprintf("dsm: unknown protocol %d", m.params.Protocol))
	}
}

// serveLocked performs one directory transaction for reqNode with the entry
// in transfer state. On return the directory reflects the grant; for a
// requester local to the serving home the page table is updated in place.
// For a remote requester it returns whether the grant carries page data,
// and the data.
func (m *Manager) serveLocked(t *sim.Task, de *dirEntry, reqNode int, vpn uint64, write bool) (withData bool, data []byte) {
	if de.writer == reqNode {
		panic(fmt.Sprintf("dsm: node %d faulted on vpn %#x it owns exclusively", reqNode, vpn))
	}
	if write {
		return m.policy.serveWrite(t, de, reqNode, vpn)
	}
	return m.policy.serveRead(t, de, reqNode, vpn)
}

// ---------------------------------------------------------------------------
// WriteInvalidate: the paper's origin-served protocol (§III-B / §III-C).

type writeInvalidate struct{ m *Manager }

func (p *writeInvalidate) proto() Protocol { return WriteInvalidate }

func (p *writeInvalidate) requestTarget(node int, vpn uint64) int { return p.m.origin }

func (p *writeInvalidate) fallbackHome(node int, vpn uint64) int { return p.m.origin }

func (p *writeInvalidate) learnHome(node int, vpn uint64, home int, epoch uint64) bool {
	return false
}

func (p *writeInvalidate) serveEntry(home int, vpn uint64) *dirEntry {
	de, _ := p.m.entry(vpn)
	return de
}

func (p *writeInvalidate) grantInstalled(node int, vpn uint64, write bool, served int, epoch uint64) {
}

func (p *writeInvalidate) compressChain(t *sim.Task, node int, vpn uint64, hops []int, home int, epoch uint64) {
}

func (p *writeInvalidate) grantCompleted(de *dirEntry, req *pageRequest) {}

func (p *writeInvalidate) leadFault(t *sim.Task, ctx Ctx, vpn uint64, write bool) (int, bool) {
	m := p.m
	if ctx.Node == m.origin {
		return m.homeFault(t, m.origin, vpn, write)
	}
	return m.requestFault(t, ctx, vpn, write), true
}

// dispatchRequest: every page request is served at the origin. Under fault
// injection the transport engine deduplicates by token first.
func (p *writeInvalidate) dispatchRequest(node int, req *pageRequest) {
	m := p.m
	if node != m.origin {
		panic(fmt.Sprintf("dsm: page request for pid %d delivered to node %d (origin %d)", m.pid, node, m.origin))
	}
	var st *serveState
	if m.chaos != nil {
		var handled bool
		if st, handled = m.e.admitServe(m.origin, req); handled {
			return
		}
	}
	m.view(m.origin).Spawn("dsm-serve", func(t *sim.Task) { m.servePageRequest(t, m.origin, req, st) })
}

func (p *writeInvalidate) serveRead(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (bool, []byte) {
	m := p.m
	switch {
	case de.writer == m.origin:
		// The origin downgrades its own exclusive copy.
		m.nodes[m.origin].pt.SetAccess(vpn, nil, mem.AccessRead)
		de.downgradeWriter()
	case de.writer >= 0:
		// A remote holds the page exclusively: downgrade it and pull the
		// fresh data back to the origin.
		m.fetchFromWriter(t, de, vpn, true /* downgrade */)
	}
	de.grantShared(reqNode)
	if reqNode == m.origin {
		m.nodes[m.origin].pt.SetAccess(vpn, m.frameAt(m.origin, vpn), mem.AccessRead)
		return false, nil
	}
	return true, m.frameAt(m.origin, vpn)
}

func (p *writeInvalidate) serveWrite(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (bool, []byte) {
	m := p.m
	needData := !de.has(reqNode) || m.params.AlwaysSendData
	if needData && de.writer >= 0 && de.writer != m.origin {
		// The fresh copy lives at a remote exclusive owner: pull it home
		// before revoking everything.
		m.fetchFromWriter(t, de, vpn, false /* invalidate */)
	}
	// Capture the outbound data before the origin's own copy is revoked.
	var data []byte
	if needData && reqNode != m.origin {
		data = m.frameAt(m.origin, vpn)
	}
	// Revoke every copy except the requester's.
	var acks []*revokeWaiter
	for _, owner := range de.ownerList(reqNode) {
		if owner == m.origin {
			m.nodes[m.origin].pt.SetAccess(vpn, nil, mem.AccessNone)
			t.Sleep(m.params.InvalidateApply)
			m.stats.invalidations.Add(1)
			m.emitInvalidate(m.origin, vpn)
			continue
		}
		if m.chaos != nil && m.chaos.NodeDead(owner) {
			// A crashed reader's copy died with it; nothing to revoke.
			de.dropOwner(owner)
			continue
		}
		acks = append(acks, m.sendRevoke(t, m.origin, owner, vpn, false, -1, 0, nil))
	}
	m.e.waitRevokes(t, acks)
	if !needData {
		m.stats.ownershipGrants.Add(1)
	}
	de.grantExclusive(reqNode)
	if reqNode == m.origin {
		m.nodes[m.origin].pt.SetAccess(vpn, m.frameAt(m.origin, vpn), mem.AccessWrite)
		return false, nil
	}
	return needData, data
}

// failover re-routes node's fault on vpn around dead, a believed home that
// is confirmed dead: it counts the failover, records an instant
// `hm.failover` marker on the faulting node's lane, and points node's route
// at the policy's fallback shard, which it returns. A node that is its own
// fallback keeps its route: the dead home's entries are rebuilt here, so
// the route is the page's only trace until the lease layer's reclaim (or a
// dead-home settle) repoints it, and dropping it would re-materialize the
// page here from zero.
func (m *Manager) failover(node int, vpn uint64, dead int, mode string) int {
	m.stats.homeFailovers.Add(1)
	if m.rec != nil {
		rec := m.rec.OnLane(node)
		rec.SpanAt("dsm", "hm.failover", node, -1, rec.Now(), 0,
			obs.Hex("vpn", vpn),
			obs.Int("dead", int64(dead)),
			obs.String("mode", mode))
	}
	fb := m.policy.fallbackHome(node, vpn)
	if fb != node {
		m.policy.learnHome(node, vpn, fb, 0)
	}
	return fb
}

// fetchFromWriter revokes the remote exclusive owner of vpn and installs the
// returned data as the origin's copy. With downgrade the owner keeps a
// shared (read-only) copy; otherwise its mapping is dropped.
func (m *Manager) fetchFromWriter(t *sim.Task, de *dirEntry, vpn uint64, downgrade bool) {
	w := de.writer
	if m.chaos != nil && m.chaos.NodeDead(w) {
		m.reclaimLostWriter(de, vpn)
		return
	}
	var pullAt time.Duration
	if m.rec != nil {
		pullAt = t.Now()
	}
	pr := m.net.PreparePageRecv(t, w, m.origin)
	waiter := m.sendRevoke(t, m.origin, w, vpn, downgrade, -1, 0, pr)
	m.e.waitRevokes(t, []*revokeWaiter{waiter})
	if waiter.lost {
		// The writer died before shipping its copy home.
		pr.Release()
		m.reclaimLostWriter(de, vpn)
		return
	}
	data := pr.Claim(t)
	m.nodes[m.origin].pt.SetAccess(vpn, data, mem.AccessRead)
	m.stats.pageTransfers.Add(1)
	de.pullHome(downgrade)
	if m.rec != nil {
		mode := "invalidate"
		if downgrade {
			mode = "downgrade"
		}
		// fetchFromWriter always executes on the origin's serve lane.
		m.rec.OnLane(m.origin).Span("dsm", "hm.pull", m.origin, -1, pullAt,
			obs.Hex("vpn", vpn),
			obs.Int("writer", int64(w)),
			obs.String("mode", mode))
	}
}

// reclaimLostWriter handles the death of a page's exclusive owner: the only
// fresh copy is gone, so ownership returns to the origin with a zero-filled
// frame and the page is counted as lost. The application sees well-defined
// (if stale) contents rather than a hang.
func (m *Manager) reclaimLostWriter(de *dirEntry, vpn uint64) {
	m.nodes[m.origin].pt.SetAccess(vpn, m.pool(m.origin).GetZeroed(), mem.AccessRead)
	m.stats.pagesLost.Add(1)
	de.reclaimHome()
}

// ---------------------------------------------------------------------------
// Shared requester / home-side machinery.

// homeFault handles a fault taken by a thread running at the page's current
// home (always the origin under WriteInvalidate).
func (m *Manager) homeFault(t *sim.Task, node int, vpn uint64, write bool) (int, bool) {
	for attempt := 1; ; attempt++ {
		de, created := m.entry(vpn)
		if created {
			// First touch anywhere: the home owns the zero-filled page
			// exclusively; no consistency traffic required.
			return attempt - 1, false
		}
		if de.busy() {
			m.stats.nacks.Add(1)
			m.backoff(t, node, attempt)
			continue
		}
		if m.Lookup(node, vpn, write) != nil {
			// Raced with a transaction that restored our access.
			return attempt - 1, true
		}
		de.begin()
		t.Sleep(m.params.Directory)
		m.serveLocked(t, de, node, vpn, write)
		de.end()
		t.Sleep(m.params.PTEInstall)
		return attempt - 1, true
	}
}

// requestFault implements the requester side at a node away from the page's
// home: prepare a landing zone, send the request to the believed home,
// await the (retransmitted, deduplicated) reply, and install the grant. A
// redirect reply refreshes the home hint and retries immediately.
func (m *Manager) requestFault(t *sim.Task, ctx Ctx, vpn uint64, write bool) int {
	node := ctx.Node
	ns := m.nodes[node]
	// hops records every node that redirected this fault along a forwarding
	// chain; after the grant lands, the policy may compress the chain so
	// later lookups resolve in at most one hop. forced carries a redirect
	// the epoch gate rejected for storage: the walk still follows it once,
	// transiently, so it makes progress past routes a liveness override has
	// pushed backward.
	var hops []int
	forced := -1
	for attempt := 1; ; attempt++ {
		var reqAt time.Duration
		if m.rec != nil {
			reqAt = t.Now()
		}
		target := m.policy.requestTarget(node, vpn)
		if forced >= 0 {
			target, forced = forced, -1
		}
		if m.chaos != nil && target != m.origin && target != node && m.chaos.NodeDead(target) {
			// The believed home is confirmed dead: skip the doomed round
			// trip and route through the policy's fallback shard, which
			// reclaims (or redirects around) dead-home pages. If that is
			// this node, back off and return: EnsurePage re-runs the lead
			// fault against the local table, which the reclaim fills.
			if target = m.failover(node, vpn, target, "dead-target"); target == node {
				m.backoff(t, node, attempt)
				return attempt - 1
			}
		}
		if target == node {
			// The believed home is this very node: either our own write
			// grant is still in its install window (the directory home flips
			// when our install ack lands at the old home), or a stale
			// self-hint survived an unmap. The directory, not the hint, is
			// authoritative — drop the hint and return; EnsurePage
			// re-validates the PTE and re-runs the lead fault against the
			// directory's current home.
			m.policy.learnHome(node, vpn, m.policy.fallbackHome(node, vpn), 0)
			return attempt - 1
		}
		pr := m.net.PreparePageRecv(t, target, node)
		token := m.e.nextToken(node)
		req := &outstanding{vpn: vpn, task: t}
		ns.outstanding[token] = req
		msg := &pageRequest{
			pid:   m.pid,
			vpn:   vpn,
			write: write,
			node:  node,
			token: token,
			pr:    pr,
		}
		m.net.Send(t, node, target, msg)
		m.e.awaitReply(t, node, target, req, msg)
		if m.rec != nil {
			outcome := "grant"
			switch {
			case req.deadHome:
				outcome = "dead-home"
			case req.nack:
				outcome = "nack"
			case req.stale:
				outcome = "stale"
			case req.redirect:
				outcome = "redirect"
			case req.withData:
				outcome = "grant+data"
			}
			// requestFault runs on the faulting node's lane.
			m.rec.OnLane(node).Span("dsm", "fault.request", node, ctx.Task, reqAt,
				obs.Hex("vpn", vpn),
				obs.Int("attempt", int64(attempt)),
				obs.String("outcome", outcome))
		}
		if req.deadHome {
			// The believed home died with our request (or its reply) in
			// flight: forget the hint and retry through the policy's fallback
			// shard after a backoff, giving the failover path time to reclaim
			// the page. (The epoch gate admits this route unconditionally —
			// the stored target is confirmed dead.)
			delete(ns.outstanding, token)
			pr.Release()
			m.failover(node, vpn, target, "dead-home")
			m.backoff(t, node, attempt)
			continue
		}
		if req.redirect {
			// Stale home hint: learn the authoritative home and retry there
			// immediately (no backoff — this is routing, not contention).
			delete(ns.outstanding, token)
			pr.Release()
			if m.chaos != nil && req.home != m.origin && m.chaos.NodeDead(req.home) {
				// The redirect points at a node that has since died: fall
				// back to the policy's recovery shard and back off, giving
				// the lease layer time to declare and rebuild.
				m.failover(node, vpn, req.home, "dead-redirect")
				m.backoff(t, node, attempt)
				continue
			}
			hops = append(hops, target)
			if !m.policy.learnHome(node, vpn, req.home, req.epoch) && req.home != node {
				// The gate rejected the redirect for storage; still follow
				// it once so the walk makes progress past routes a liveness
				// override pushed backward. A rejected redirect naming THIS
				// node is a stale echo of our own past tenure — our stored
				// route is fresher, so just retry through it.
				forced = req.home
			}
			continue
		}
		if req.nack {
			delete(ns.outstanding, token)
			pr.Release()
			m.stats.nacks.Add(1)
			m.backoff(t, node, attempt)
			continue
		}
		if req.stale {
			// A concurrent transaction already satisfied this access; the
			// caller re-validates the PTE.
			delete(ns.outstanding, token)
			pr.Release()
			return attempt - 1
		}
		var frame []byte
		if req.withData {
			var claimAt time.Duration
			if m.rec != nil {
				claimAt = t.Now()
			}
			frame = pr.Claim(t)
			if m.rec != nil {
				m.rec.OnLane(node).Span("dsm", "fault.transfer", node, ctx.Task, claimAt,
					obs.Hex("vpn", vpn))
			}
		} else {
			// Ownership-only grant: our existing copy is up to date.
			pr.Release()
			pte := ns.pt.Lookup(vpn)
			if pte == nil || pte.Frame == nil {
				panic(fmt.Sprintf("dsm: ownership-only grant for vpn %#x but node %d has no copy", vpn, node))
			}
			frame = pte.Frame
		}
		var installAt time.Duration
		if m.rec != nil {
			installAt = t.Now()
		}
		t.Sleep(m.params.PTEInstall)
		// A grant that carries data over an existing local copy (the
		// AlwaysSendData ablation's read-to-write upgrade) orphans the old
		// frame: recycle it.
		if prev := ns.pt.SetAccess(vpn, frame, mem.GrantAccess(write)); prev != nil && &prev[0] != &frame[0] {
			m.freeFrame(node, prev)
		}
		if m.rec != nil {
			m.rec.OnLane(node).Span("dsm", "fault.install", node, ctx.Task, installAt,
				obs.Hex("vpn", vpn))
		}
		req.installed = true
		// Authority adoption (sharded-directory write grants) must happen
		// before the install ack is sent: the old home hands off only after
		// the new home's directory entry is live.
		m.policy.grantInstalled(node, vpn, write, target, req.epoch)
		m.e.noteInstalled(ns, token, target, t.Now())
		delete(ns.outstanding, token)
		m.net.Send(t, node, target, &installAck{pid: m.pid, token: token})
		// A successful grant pins down where the page's home is right now:
		// the serving node for reads, ourselves for writes (the home flips
		// to the new exclusive owner as our install ack lands), at the epoch
		// the grant reply carried.
		if write {
			m.policy.learnHome(node, vpn, node, req.epoch)
		} else {
			m.policy.learnHome(node, vpn, target, req.epoch)
		}
		if len(hops) > 0 {
			final := target
			if write {
				final = node
			}
			m.policy.compressChain(t, node, vpn, hops, final, req.epoch)
		}
		// Apply revocations deferred during the install window.
		for _, fn := range req.deferred {
			fn()
		}
		return attempt - 1
	}
}

func (m *Manager) sendRevoke(t *sim.Task, from, target int, vpn uint64, downgrade bool, newHome int, newEpoch uint64, pr *fabric.PageRecv) *revokeWaiter {
	seq := m.e.nextRevokeSeq(from)
	msg := &revokeMsg{
		pid:       m.pid,
		vpn:       vpn,
		seq:       seq,
		downgrade: downgrade,
		needData:  pr != nil,
		home:      from,
		newHome:   newHome,
		newEpoch:  newEpoch,
		pr:        pr,
	}
	w := &revokeWaiter{task: t, target: target, msg: msg}
	m.nodes[from].revokeWait[seq] = w
	m.net.Send(t, from, target, msg)
	if downgrade {
		m.stats.downgrades.Add(1)
	} else {
		m.stats.invalidations.Add(1)
	}
	return w
}

// ---------------------------------------------------------------------------
// distManager: the sharded directory with forwarding chains, behind both
// migrating-authority presets.
//
// Every node is a directory shard. A page's *anchor* — the shard a lookup
// starts at — is fixed per page (shardOf): the origin for every page under
// HomeMigrate, a static hash of the VPN under DistributedManager, so any
// node can locate any page without shared state. Directory *authority* (the
// home) follows the last writer, and the authoritative entry lives in the
// serving node's own shard table (nodeState.dir): a node that hands
// authority off deletes its entry and leaves a forwarding pointer
// (nodeState.fwd) behind. Requests that land at a non-authoritative shard
// are redirected along the forwarding chain, and after a chained grant
// lands the requester sends path-compression hints so every hop's pointer
// jumps straight to the new home: chains collapse to at most one hop.
// Serves run concurrently on each shard's own simulation lane.

type distManager struct{ m *Manager }

func (p *distManager) proto() Protocol { return p.m.params.Protocol }

func (p *distManager) requestTarget(node int, vpn uint64) int {
	if h, ok := p.m.nodes[node].fwd[vpn]; ok {
		return h
	}
	return p.m.shardOf(vpn)
}

// fallbackHome re-routes around a dead believed-home: the page's anchor
// shard (or, if the anchor itself died, the next live shard on the ring) is
// where dead-shard entries are rebuilt.
func (p *distManager) fallbackHome(node int, vpn uint64) int { return p.m.liveShard(vpn) }

// learnHome is the single epoch-gated route table update: every source of
// routing information — grant replies, redirects, revocation-carried hints,
// path-compression hints — lands here. An update older than the route the
// node already holds is rejected, so the forwarding graph stays acyclic no
// matter how messages reorder; the exception is liveness, which beats
// freshness — a route whose target is confirmed dead (or nonsensically
// names the node itself) yields to any replacement.
func (p *distManager) learnHome(node int, vpn uint64, home int, epoch uint64) bool {
	m := p.m
	ns := m.nodes[node]
	if home == node {
		// A claim that this very node is home. Legitimate for our own write
		// grant (the entry adopted in grantInstalled is authoritative, no
		// route needed) — but a STALE redirect can also name us, echoing a
		// tenure we already handed off. Deleting our fresher breadcrumb on
		// such an echo would orphan the chain behind us (and let the anchor
		// re-materialize a second lineage), so the epoch gate applies here
		// exactly as below.
		if cur, ok := ns.routeEpoch[vpn]; ok && epoch < cur {
			tgt, routed := ns.fwd[vpn]
			if !routed {
				tgt = m.shardOf(vpn)
			}
			if tgt != node && (m.chaos == nil || !m.chaos.NodeDead(tgt)) {
				return false
			}
		}
		delete(ns.fwd, vpn)
		if epoch > ns.routeEpoch[vpn] {
			ns.routeEpoch[vpn] = epoch
		}
		return true
	}
	if cur, ok := ns.routeEpoch[vpn]; ok && epoch < cur {
		tgt, routed := ns.fwd[vpn]
		if !routed {
			tgt = m.shardOf(vpn)
		}
		if tgt != node && (m.chaos == nil || !m.chaos.NodeDead(tgt)) {
			return false
		}
	}
	ns.fwd[vpn] = home
	ns.routeEpoch[vpn] = epoch
	return true
}

// serveEntry resolves the entry in the serving shard's own table. A request
// at the page's anchor with no entry and no forwarding pointer is the
// page's global first touch: materialize it here, anchored. A miss anywhere
// else means authority moved between dispatch and serve; return nil so the
// caller bounces the request down the forwarding chain.
func (p *distManager) serveEntry(home int, vpn uint64) *dirEntry {
	m := p.m
	ns := m.nodes[home]
	if de, ok := ns.dir[vpn]; ok {
		return de
	}
	if _, fwded := ns.fwd[vpn]; !fwded && m.shardOf(vpn) == home {
		ns.pt.SetAccess(vpn, m.pool(home).GetZeroed(), mem.AccessWrite)
		de := newDirEntry(home)
		de.firstTouch()
		ns.dir[vpn] = de
		return de
	}
	return nil
}

// grantInstalled is the authority-adoption point: a write grant makes the
// requester the page's home, so it materializes a fresh authoritative entry
// in its own shard table before the install ack releases the old home. The
// old home's entry is retired by grantCompleted when that ack arrives.
func (p *distManager) grantInstalled(node int, vpn uint64, write bool, served int, epoch uint64) {
	if !write {
		return
	}
	ns := p.m.nodes[node]
	de := newDirEntry(node)
	de.adoptHome(node)
	de.epoch = epoch
	ns.dir[vpn] = de
	delete(ns.fwd, vpn)
	if epoch > ns.routeEpoch[vpn] {
		ns.routeEpoch[vpn] = epoch
	}
}

// compressChain sends a fire-and-forget home hint to every node that
// redirected this fault, collapsing the forwarding chain it walked: each
// hop's pointer now jumps straight to the page's current home.
func (p *distManager) compressChain(t *sim.Task, node int, vpn uint64, hops []int, home int, epoch uint64) {
	m := p.m
	var sent uint64
	for _, hop := range hops {
		if hop == home || hop == node {
			continue
		}
		if bit := uint64(1) << uint(hop); sent&bit != 0 {
			continue
		} else {
			sent |= bit
		}
		if m.chaos != nil && m.chaos.NodeDead(hop) {
			continue
		}
		m.net.Send(t, node, hop, &homeHintMsg{pid: m.pid, vpn: vpn, home: home, epoch: epoch})
	}
}

// grantCompleted retires the old home's authority once a migrated write
// grant is acknowledged: the entry leaves this shard's table and a
// forwarding pointer to the new home — stamped with the handoff epoch —
// takes its place. It runs on the old home's lane (the serve task), so the
// table mutation is lane-local; the new home already adopted its own entry
// (at the bumped epoch) in grantInstalled.
func (p *distManager) grantCompleted(de *dirEntry, req *pageRequest) {
	if !req.write {
		return
	}
	m := p.m
	old := de.home
	if old == req.node {
		return
	}
	ons := m.nodes[old]
	delete(ons.dir, req.vpn)
	de.epoch++
	ons.fwd[req.vpn] = req.node
	ons.routeEpoch[req.vpn] = de.epoch
	de.home = req.node
}

func (p *distManager) leadFault(t *sim.Task, ctx Ctx, vpn uint64, write bool) (int, bool) {
	m := p.m
	node := ctx.Node
	ns := m.nodes[node]
	for attempt := 1; ; attempt++ {
		de, ok := ns.dir[vpn]
		if !ok {
			if _, fwded := ns.fwd[vpn]; !fwded {
				if m.shardOf(vpn) == node {
					// Global first touch at the page's own anchor shard:
					// materialize locally, no consistency traffic required.
					ns.pt.SetAccess(vpn, m.pool(node).GetZeroed(), mem.AccessWrite)
					de = newDirEntry(node)
					de.firstTouch()
					ns.dir[vpn] = de
					return attempt - 1, false
				}
				if m.distNeedsLocate(node, vpn) {
					// This node is the live fallback for a reclaimed dead
					// anchor and holds no trace of the page: resolve it on
					// the global lane, then re-enter with the planted route
					// (or freshly materialized entry).
					m.distLocate(t, node, vpn)
					continue
				}
			}
			return m.requestFault(t, ctx, vpn, write) + attempt - 1, true
		}
		// Fault at the page's authoritative shard: resolve through the local
		// table. Re-check after every wait — the busy transaction we waited
		// out may have migrated authority away (the entry leaves the table).
		if de.busy() {
			if attempt == 1 {
				m.stats.nacks.Add(1)
			}
			t.Sleep(homeBusyPoll)
			continue
		}
		if m.Lookup(node, vpn, write) != nil {
			// Raced with a transaction that restored our access.
			return attempt - 1, true
		}
		de.begin()
		if m.chaos != nil {
			// A thread killed with its node mid-transaction never reaches
			// de.end() below: release the entry as the task unwinds and
			// rebuild it at the live anchor, or the reclaim skips it and
			// every lookup waits on it for good.
			defer func() {
				if t.Killed() && de.busy() {
					de.end()
					m.distScheduleRebuild(node, vpn, nil)
				}
			}()
		}
		t.Sleep(m.params.Directory)
		m.serveLocked(t, de, node, vpn, write)
		de.end()
		t.Sleep(m.params.PTEInstall)
		return attempt - 1, true
	}
}

// dispatchRequest routes a page request delivered at this shard: serve it
// here if the shard is authoritative (or the request is the page's first
// touch at its anchor), otherwise redirect the requester one hop down the
// forwarding chain. Under fault injection the transport engine deduplicates
// by token first.
func (p *distManager) dispatchRequest(node int, req *pageRequest) {
	m := p.m
	var st *serveState
	if m.chaos != nil {
		var handled bool
		if st, handled = m.e.admitServe(node, req); handled {
			return
		}
	}
	ns := m.nodes[node]
	_, hosted := ns.dir[req.vpn]
	fwdTo, fwded := ns.fwd[req.vpn]
	if !hosted && !fwded && m.shardOf(req.vpn) == node {
		hosted = true // first touch resolves at the anchor
	}
	if !hosted {
		if !fwded && m.distNeedsLocate(node, req.vpn) {
			// This shard is the live fallback for a reclaimed dead anchor
			// and holds no trace of the page: resolve it on the global lane,
			// then point the requester at whatever the locate found (this
			// very shard, if the page had to be materialized here).
			m.stats.forwards.Add(1)
			if st != nil {
				st.redirect = true
				st.redirTo = node
				st.close(m.view(node).Now())
			}
			m.view(node).Spawn("dsm-locate", func(t *sim.Task) {
				m.distLocate(t, node, req.vpn)
				t.Sleep(m.params.OriginDispatch)
				target, epoch := node, ns.routeEpoch[req.vpn]
				if fw, ok := ns.fwd[req.vpn]; ok {
					target = fw
				}
				m.net.Send(t, node, req.node, &pageReply{pid: m.pid, token: req.token, redirect: true, home: target, epoch: epoch})
			})
			return
		}
		target := fwdTo
		epoch := ns.routeEpoch[req.vpn]
		if !fwded {
			// An anchor restart, not a home claim: carry no freshness.
			target = m.shardOf(req.vpn)
			epoch = 0
		}
		m.stats.forwards.Add(1)
		if st != nil {
			st.redirect = true
			st.redirTo = target
			st.close(m.view(node).Now())
		}
		if m.rec != nil {
			// Recorded on the forwarding shard's lane.
			rec := m.rec.OnLane(node)
			rec.SpanAt("dsm", "dist.forward", node, -1, rec.Now(), 0,
				obs.Hex("vpn", req.vpn),
				obs.Int("from", int64(req.node)),
				obs.Int("home", int64(target)))
		}
		m.view(node).Spawn("dsm-redirect", func(t *sim.Task) {
			t.Sleep(m.params.OriginDispatch)
			m.net.Send(t, node, req.node, &pageReply{pid: m.pid, token: req.token, redirect: true, home: target, epoch: epoch})
		})
		return
	}
	if m.rec != nil {
		// The lookup resolved at this shard; the serve span that follows
		// covers the transaction itself.
		rec := m.rec.OnLane(node)
		rec.SpanAt("dsm", "dist.lookup", node, -1, rec.Now(), 0,
			obs.Hex("vpn", req.vpn),
			obs.Int("from", int64(req.node)))
	}
	m.view(node).Spawn("dsm-serve", func(t *sim.Task) { m.servePageRequest(t, node, req, st) })
}

func (p *distManager) serveRead(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (bool, []byte) {
	return p.m.serveReadHomed(t, de, reqNode, vpn)
}

func (p *distManager) serveWrite(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (bool, []byte) {
	return p.m.serveWriteHomed(t, de, reqNode, vpn)
}

// serveReadHomed / serveWriteHomed are the sharded directory's
// transactions: the serving home is de.home, wherever that is, and a
// writer away from its home cannot exist — the home migrates with
// exclusivity — so there is no fetch-from-writer path.
func (m *Manager) serveReadHomed(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (bool, []byte) {
	home := de.home
	if de.writer >= 0 && de.writer != home {
		panic(fmt.Sprintf("dsm: migrating-home entry for vpn %#x has writer %d away from home %d", vpn, de.writer, home))
	}
	if de.writer == home {
		// The home holds the page exclusively: downgrade in place.
		m.nodes[home].pt.SetAccess(vpn, nil, mem.AccessRead)
		de.downgradeWriter()
	}
	de.grantShared(reqNode)
	if reqNode == home {
		m.nodes[home].pt.SetAccess(vpn, m.frameAt(home, vpn), mem.AccessRead)
		return false, nil
	}
	return true, m.frameAt(home, vpn)
}

func (m *Manager) serveWriteHomed(t *sim.Task, de *dirEntry, reqNode int, vpn uint64) (bool, []byte) {
	home := de.home
	if de.writer >= 0 && de.writer != home {
		panic(fmt.Sprintf("dsm: migrating-home entry for vpn %#x has writer %d away from home %d", vpn, de.writer, home))
	}
	needData := !de.has(reqNode) || m.params.AlwaysSendData
	// Capture the outbound data before the home's own copy is revoked.
	var data []byte
	if needData && reqNode != home {
		data = m.frameAt(home, vpn)
	}
	// Revoke every copy except the requester's; each revocation carries the
	// prospective new home (stamped with the handoff epoch it takes effect
	// at) so replica holders keep their routes fresh.
	var acks []*revokeWaiter
	for _, owner := range de.ownerList(reqNode) {
		if owner == home {
			m.nodes[home].pt.SetAccess(vpn, nil, mem.AccessNone)
			t.Sleep(m.params.InvalidateApply)
			m.stats.invalidations.Add(1)
			m.emitInvalidate(home, vpn)
			continue
		}
		if m.chaos != nil && m.chaos.NodeDead(owner) {
			// A crashed reader's copy died with it; nothing to revoke.
			de.dropOwner(owner)
			continue
		}
		acks = append(acks, m.sendRevoke(t, home, owner, vpn, false, reqNode, de.epoch+1, nil))
	}
	m.e.waitRevokes(t, acks)
	if !needData {
		m.stats.ownershipGrants.Add(1)
	}
	de.grantExclusive(reqNode)
	if reqNode == home {
		m.nodes[home].pt.SetAccess(vpn, m.frameAt(home, vpn), mem.AccessWrite)
		return false, nil
	}
	return needData, data
}
