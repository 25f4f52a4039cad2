package profile

import (
	"sort"

	"dex/internal/mem"
)

// Affinity analysis implements the paper's closing observation that DeX's
// relocation capability can be "leveraged to relocate the computation near
// the data": from the fault trace it infers, per thread, the node that
// produces most of the data the thread keeps pulling across the fabric, so
// a scheduler (or the application itself, between phases) can migrate the
// thread there.

// Suggestion recommends moving one thread to the node that produces the
// data it reads.
type Suggestion struct {
	Task int
	From int // node the thread faulted from
	To   int // node producing most of what it reads
	// ReadFaults is how many of the thread's read faults targeted pages
	// produced at To; Total is all its cross-node read faults.
	ReadFaults int
	Total      int
}

// Score is the fraction of the thread's remote reads that would become
// local after the move.
func (s Suggestion) Score() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.ReadFaults) / float64(s.Total)
}

// SitePair is a write site and a read site that keep touching the same
// pages — §IV-C's observation that "oftentimes two bottleneck locations
// surface together: one location will incur a large number of write faults,
// while another incurs a correlated number of read/write faults".
type SitePair struct {
	WriteSite string
	ReadSite  string
	// Pages is how many distinct pages both sites fault on; Writes and
	// Reads are the fault volumes of each site on those shared pages.
	Pages  int
	Writes int
	Reads  int
}

// CorrelatedSites finds (write site, read site) pairs sharing fault pages,
// ranked by combined volume — the §IV-C workflow for spotting a producer
// location whose stores keep invalidating a consumer location's replicas.
func (tr *Trace) CorrelatedSites(n int) []SitePair {
	type siteOnPage struct {
		site string
		page mem.Addr
	}
	writeCounts := make(map[siteOnPage]int)
	readCounts := make(map[siteOnPage]int)
	pageWriters := make(map[mem.Addr]map[string]struct{})
	pageReaders := make(map[mem.Addr]map[string]struct{})
	for _, ev := range tr.events {
		if ev.Site == "" {
			continue
		}
		page := ev.Addr.PageBase()
		k := siteOnPage{site: ev.Site, page: page}
		switch ev.Kind {
		case KindWrite:
			writeCounts[k]++
			if pageWriters[page] == nil {
				pageWriters[page] = make(map[string]struct{})
			}
			pageWriters[page][ev.Site] = struct{}{}
		case KindRead:
			readCounts[k]++
			if pageReaders[page] == nil {
				pageReaders[page] = make(map[string]struct{})
			}
			pageReaders[page][ev.Site] = struct{}{}
		}
	}
	type pairKey struct{ w, r string }
	acc := make(map[pairKey]*SitePair)
	var order []pairKey
	for page, writers := range pageWriters {
		for w := range writers {
			for r := range pageReaders[page] {
				if w == r {
					continue
				}
				k := pairKey{w: w, r: r}
				p, ok := acc[k]
				if !ok {
					p = &SitePair{WriteSite: w, ReadSite: r}
					acc[k] = p
					order = append(order, k)
				}
				p.Pages++
				p.Writes += writeCounts[siteOnPage{site: w, page: page}]
				p.Reads += readCounts[siteOnPage{site: r, page: page}]
			}
		}
	}
	out := make([]SitePair, 0, len(order))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Writes+out[i].Reads, out[j].Writes+out[j].Reads
		if ti != tj {
			return ti > tj
		}
		if out[i].WriteSite != out[j].WriteSite {
			return out[i].WriteSite < out[j].WriteSite
		}
		return out[i].ReadSite < out[j].ReadSite
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// AffinitySuggestions analyses the trace and returns, for every thread with
// at least minFaults cross-node read faults, the producer node holding most
// of its working set (when that differs from where the thread ran). A
// page's producer is the node with the most write faults on it.
//
// Suggestions are ordered by potential benefit (ReadFaults descending),
// then by Task and From: a thread that migrated gets one suggestion per node
// it faulted from, and the full key keeps the order independent of the
// order events arrived in.
func (tr *Trace) AffinitySuggestions(minFaults int) []Suggestion {
	// Producer per page: the node that write-faults it most.
	type wcount map[int]int
	writers := make(map[mem.Addr]wcount)
	for _, ev := range tr.events {
		if ev.Kind != KindWrite {
			continue
		}
		page := ev.Addr.PageBase()
		if writers[page] == nil {
			writers[page] = make(wcount)
		}
		writers[page][ev.Node]++
	}
	producer := make(map[mem.Addr]int, len(writers))
	for page, w := range writers {
		best, bestN := -1, 0
		for node, n := range w {
			if n > bestN || (n == bestN && (best == -1 || node < best)) {
				best, bestN = node, n
			}
		}
		producer[page] = best
	}
	// Per (node, task): read faults by producer node.
	type key struct{ node, task int }
	reads := make(map[key]map[int]int)
	totals := make(map[key]int)
	var order []key
	for _, ev := range tr.events {
		if ev.Kind != KindRead {
			continue
		}
		prod, ok := producer[ev.Addr.PageBase()]
		if !ok || prod == ev.Node {
			continue // locally produced or producer unknown
		}
		k := key{ev.Node, ev.Task}
		if reads[k] == nil {
			reads[k] = make(map[int]int)
			order = append(order, k)
		}
		reads[k][prod]++
		totals[k]++
	}
	var out []Suggestion
	for _, k := range order {
		if totals[k] < minFaults {
			continue
		}
		best, bestN := -1, 0
		for node, n := range reads[k] {
			if n > bestN || (n == bestN && (best == -1 || node < best)) {
				best, bestN = node, n
			}
		}
		if best == -1 || best == k.node {
			continue
		}
		out = append(out, Suggestion{
			Task: k.task, From: k.node, To: best,
			ReadFaults: bestN, Total: totals[k],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ReadFaults != out[j].ReadFaults {
			return out[i].ReadFaults > out[j].ReadFaults
		}
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].From < out[j].From
	})
	return out
}
