package graph

// This file is the write path of the incremental-update subsystem: batched
// mutations (Delta / ApplyDelta), the per-revision delta log the DB keeps
// next to its revision counter, and the DeltaSince window that lets derived
// state (the CSR index, the per-label statistics, the cached alphabet, the
// atom store in the Derived slot) maintain itself from the delta
// instead of rebuilding from scratch. MaintStats exposes retained-vs-rebuilt
// counters so callers (and the cxrpq-serve /stats endpoint) can observe
// which path a mutation took.
//
// Soundness model: node ids are dense and never removed, and edge insertion
// is monotone for every reachability relation the evaluation stack derives,
// so an insert-only delta window admits in-place extension of derived
// state; removals and brand-new labels fall back to a rebuild of whatever
// they touch. A window that cancels out (every added edge removed again) is
// reported as empty — the graph is the same multiset of edges, so derived
// state is retained wholesale.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// DeltaEdge is one edge of a batched mutation, by node name (nodes named in
// Add edges are interned on application; Del edges must reference existing
// nodes).
type DeltaEdge struct {
	From  string
	Label rune
	To    string
}

// Delta is a batched mutation: edge additions (interning new nodes as
// needed) and edge removals. Removals refer to edges present before the
// delta is applied; in a multigraph one occurrence of (from, label, to) is
// removed per Del entry.
type Delta struct {
	Add []DeltaEdge
	Del []DeltaEdge
}

// DeltaInfo summarizes the net effect of a revision window (FromRev, ToRev]:
// the added and removed edge multisets with add/remove pairs cancelled, the
// number of nodes interned in the window, and the labels the window touched.
// It is what delta-maintained caches consume to decide between retaining,
// extending and rebuilding their entries.
type DeltaInfo struct {
	FromRev, ToRev uint64
	Added          []Edge // net added edges (id-based)
	Removed        []Edge // net removed edges
	Nodes          int    // node count at ToRev
	NewNodes       int    // nodes interned in the window: ids [Nodes-NewNodes, Nodes)
	Labels         []rune // distinct labels of Added+Removed (sorted)
	NewLabels      []rune // labels first seen in the window (sorted; conservative)
}

// InsertOnly reports whether the window removed nothing — the monotone case
// where derived reachability state can be extended in place.
func (i *DeltaInfo) InsertOnly() bool { return len(i.Removed) == 0 }

// Empty reports whether the window net-changed nothing (e.g. an
// add-then-remove round trip): same edge multiset, same nodes — derived
// state can be retained wholesale.
func (i *DeltaInfo) Empty() bool {
	return len(i.Added) == 0 && len(i.Removed) == 0 && i.NewNodes == 0
}

// FirstNewNode returns the smallest node id interned in the window (== Nodes
// when the window interned none).
func (i *DeltaInfo) FirstNewNode() int { return i.Nodes - i.NewNodes }

// deltaRec is one logged mutation. Records are contiguous: the i-th record
// of the log moves the revision from log.start+i to log.start+i+1.
type deltaRec struct {
	kind   uint8
	edge   Edge // kind recAddNode: From holds the new node id
	newLbl bool // recAddEdge: the label had no edges before this record
}

const (
	recAddNode = uint8(iota)
	recAddEdge
	recDelEdge
)

// maxDeltaLog bounds the log; on overflow the older half is discarded, so
// consumers whose revision predates the retained window rebuild instead.
const maxDeltaLog = 8192

type deltaLog struct {
	start uint64 // revision before recs[0]
	recs  []deltaRec
}

func (l *deltaLog) append(r deltaRec) {
	if len(l.recs) >= maxDeltaLog {
		half := len(l.recs) / 2
		l.start += uint64(half)
		l.recs = append([]deltaRec(nil), l.recs[half:]...)
	}
	l.recs = append(l.recs, r)
}

// maintCounters tracks which maintenance path derived state took; atomic so
// MaintStats can be read concurrently with the (quiescent-writer) contract.
type maintCounters struct {
	idxExtended, idxRetained, idxRebuilt     atomic.Uint64
	statsDelta, statsRebuilt                 atomic.Uint64
	labelStatsRetained, labelStatsRecomputed atomic.Uint64
	alphaRetained, alphaRebuilt              atomic.Uint64
}

// MaintStats is a snapshot of the database's derived-state maintenance
// counters: how often the index, statistics and alphabet were delta-updated
// (or retained outright) versus rebuilt from scratch.
type MaintStats struct {
	IndexExtended uint64 `json:"index_extended"` // CSR view extended in place from an insert-only delta
	IndexRetained uint64 `json:"index_retained"` // CSR view reused unchanged (empty net delta)
	IndexRebuilds uint64 `json:"index_rebuilds"` // CSR view rebuilt from the adjacency lists

	StatsDeltaUpdates    uint64 `json:"stats_delta_updates"`    // statistics updated from a delta
	StatsRebuilds        uint64 `json:"stats_rebuilds"`         // statistics rebuilt from scratch
	LabelStatsRetained   uint64 `json:"label_stats_retained"`   // per-label stat entries carried over untouched
	LabelStatsRecomputed uint64 `json:"label_stats_recomputed"` // per-label stat entries recomputed (label touched by a delta)

	AlphaRetained uint64 `json:"alpha_retained"` // cached alphabet revalidated without recomputation
	AlphaRebuilds uint64 `json:"alpha_rebuilds"` // alphabet re-sorted from the label counts
}

// MaintStats returns a snapshot of the maintenance counters.
func (d *DB) MaintStats() MaintStats {
	return MaintStats{
		IndexExtended:        d.maint.idxExtended.Load(),
		IndexRetained:        d.maint.idxRetained.Load(),
		IndexRebuilds:        d.maint.idxRebuilt.Load(),
		StatsDeltaUpdates:    d.maint.statsDelta.Load(),
		StatsRebuilds:        d.maint.statsRebuilt.Load(),
		LabelStatsRetained:   d.maint.labelStatsRetained.Load(),
		LabelStatsRecomputed: d.maint.labelStatsRecomputed.Load(),
		AlphaRetained:        d.maint.alphaRetained.Load(),
		AlphaRebuilds:        d.maint.alphaRebuilt.Load(),
	}
}

// DeltaSince returns the net delta of the revision window (rev, Revision()],
// or nil when the log no longer covers the window (the consumer must
// rebuild). Added and removed occurrences of the same (from, label, to)
// cancel, so an add-then-remove round trip reports as Empty. Like every
// other read, it must not run concurrently with mutations.
func (d *DB) DeltaSince(rev uint64) *DeltaInfo {
	cur := d.version
	if rev > cur || rev < d.log.start {
		return nil
	}
	info := &DeltaInfo{FromRev: rev, ToRev: cur, Nodes: len(d.names)}
	addCnt := map[Edge]int{}
	delCnt := map[Edge]int{}
	newLbl := map[rune]bool{}
	for _, r := range d.log.recs[rev-d.log.start:] {
		switch r.kind {
		case recAddNode:
			info.NewNodes++
		case recAddEdge:
			if delCnt[r.edge] > 0 {
				delCnt[r.edge]--
			} else {
				addCnt[r.edge]++
			}
			if r.newLbl {
				newLbl[r.edge.Label] = true
			}
		case recDelEdge:
			if addCnt[r.edge] > 0 {
				addCnt[r.edge]--
			} else {
				delCnt[r.edge]++
			}
		}
	}
	labels := map[rune]bool{}
	materialize := func(cnt map[Edge]int) []Edge {
		var out []Edge
		for e, n := range cnt {
			if n <= 0 {
				continue
			}
			labels[e.Label] = true
			for i := 0; i < n; i++ {
				out = append(out, e)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.From != b.From {
				return a.From < b.From
			}
			if a.Label != b.Label {
				return a.Label < b.Label
			}
			return a.To < b.To
		})
		return out
	}
	info.Added = materialize(addCnt)
	info.Removed = materialize(delCnt)
	info.Labels = sortedLabelSet(labels)
	info.NewLabels = sortedLabelSet(newLbl)
	return info
}

func sortedLabelSet(set map[rune]bool) []rune {
	if len(set) == 0 {
		return nil
	}
	out := make([]rune, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ApplyDelta applies a batched mutation: removals first (validated up front,
// so an invalid delta is rejected before anything is applied), then
// additions, interning nodes named by Add edges as needed. It returns the
// net DeltaInfo of the batch. Mutations must not run concurrently with
// readers (the usual revision contract).
func (d *DB) ApplyDelta(delta Delta) (*DeltaInfo, error) {
	d.mutable()
	fromRev := d.version
	preNodes := len(d.names)
	// Validate removals against the pre-delta multiset.
	need := map[Edge]int{}
	dels := make([]Edge, 0, len(delta.Del))
	for _, de := range delta.Del {
		u, ok := d.byName[de.From]
		if !ok {
			return nil, fmt.Errorf("graph: delta removes edge from unknown node %q", de.From)
		}
		v, ok := d.byName[de.To]
		if !ok {
			return nil, fmt.Errorf("graph: delta removes edge to unknown node %q", de.To)
		}
		e := Edge{From: u, Label: de.Label, To: v}
		need[e]++
		dels = append(dels, e)
	}
	for e, n := range need {
		if have := d.countEdge(e); have < n {
			return nil, fmt.Errorf("graph: delta removes %d occurrences of (%s %c %s), database has %d",
				n, d.names[e.From], e.Label, d.names[e.To], have)
		}
	}
	for _, e := range dels {
		d.removeEdge(e)
	}
	for _, ae := range delta.Add {
		d.AddEdge(d.Node(ae.From), ae.Label, d.Node(ae.To))
	}
	info := d.DeltaSince(fromRev)
	if info == nil {
		// The log overflowed inside the batch (it was larger than the
		// retained window): summarize from the request without add/remove
		// cancellation. Consumers re-reading DeltaSince see the window as
		// uncovered and rebuild, so this summary is reporting-only.
		info = &DeltaInfo{FromRev: fromRev, ToRev: d.version,
			Nodes: len(d.names), NewNodes: len(d.names) - preNodes}
		labels := map[rune]bool{}
		for _, de := range delta.Add {
			e := Edge{From: d.byName[de.From], Label: de.Label, To: d.byName[de.To]}
			info.Added = append(info.Added, e)
			labels[de.Label] = true
		}
		for _, de := range delta.Del {
			e := Edge{From: d.byName[de.From], Label: de.Label, To: d.byName[de.To]}
			info.Removed = append(info.Removed, e)
			labels[de.Label] = true
		}
		info.Labels = sortedLabelSet(labels)
		info.NewLabels = info.Labels // unknown: conservative
	}
	return info, nil
}

// countEdge returns the number of occurrences of e in the database.
func (d *DB) countEdge(e Edge) int {
	if e.From < 0 || e.From >= len(d.out) {
		return 0
	}
	n := 0
	for _, o := range d.out[e.From] {
		if o == e {
			n++
		}
	}
	return n
}

// removeEdge removes one occurrence of e (which must exist), preserving the
// relative order of the remaining adjacency entries.
func (d *DB) removeEdge(e Edge) {
	d.out[e.From] = spliceEdge(d.out[e.From], e)
	d.in[e.To] = spliceEdge(d.in[e.To], e)
	d.nEdges--
	if d.sigma[e.Label] <= 1 {
		delete(d.sigma, e.Label)
	} else {
		d.sigma[e.Label]--
	}
	d.version++
	d.log.append(deltaRec{kind: recDelEdge, edge: e})
}

func spliceEdge(edges []Edge, e Edge) []Edge {
	for i, o := range edges {
		if o == e {
			return append(edges[:i:i], edges[i+1:]...)
		}
	}
	panic("graph: removeEdge: edge not present")
}

// ParseDeltaEdges parses the textual edge-list format ("from label to" per
// line, '#' comments and blank lines ignored) into delta edges — the
// /update request format of cxrpq-serve.
func ParseDeltaEdges(s string) ([]DeltaEdge, error) {
	var out []DeltaEdge
	for lineNo, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		from, label, to, err := parseEdgeLine(line)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo+1, err)
		}
		out = append(out, DeltaEdge{From: from, Label: label, To: to})
	}
	return out, nil
}

// parseEdgeLine splits one "from label to" triple.
func parseEdgeLine(line string) (from string, label rune, to string, err error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return "", 0, "", fmt.Errorf("want 'from label to', got %q", line)
	}
	rs := []rune(fields[1])
	if len(rs) != 1 {
		return "", 0, "", fmt.Errorf("label must be a single symbol, got %q", fields[1])
	}
	return fields[0], rs[0], fields[2], nil
}
