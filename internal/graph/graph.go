// Package graph implements the graph databases of §2.2: directed,
// edge-labelled multigraphs D = (V_D, E_D) with E_D ⊆ V_D × Σ × V_D. Nodes
// are dense integers with optional string names; a textual format, builders
// and path utilities are provided.
package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Edge is a single arc (From, Label, To).
type Edge struct {
	From  int
	Label rune
	To    int
}

// DB is a graph database. The zero value is an empty database.
type DB struct {
	names  []string       // node id -> name
	byName map[string]int // name -> node id
	out    [][]Edge       // adjacency by source; nil in a frozen view (see Out)
	in     [][]Edge       // adjacency by target; nil in a frozen view
	nEdges int
	sigma  map[rune]int // label -> live edge count

	version uint64   // bumped on every mutation
	log     deltaLog // per-revision mutation records (see delta.go)
	maint   maintCounters

	// Snapshot support (see snapshot.go). frozen marks a read-only view
	// returned by Snapshot(): mutators panic on it. layer is the immutable
	// layered name→id map a frozen view resolves Lookup through instead of
	// byName (which frozen views do not carry). The snap* fields live on the
	// live DB only and cache layer/handle construction across Snapshot calls.
	frozen      bool
	layer       *nameLayer
	snapLayer   *nameLayer
	lastSnap    *Snapshot
	lastSnapRev uint64
	snapOnce    bool

	idxMu      sync.Mutex
	idx        *Index
	idxVersion uint64

	alphaMu      sync.Mutex
	alpha        []rune
	alphaOK      bool
	alphaVersion uint64

	derivedMu sync.Mutex
	derived   any
}

// New returns an empty graph database.
func New() *DB {
	return &DB{byName: map[string]int{}, sigma: map[rune]int{}}
}

// Node returns the id for name, adding a fresh node if necessary.
func (d *DB) Node(name string) int {
	if id, ok := d.byName[name]; ok {
		return id
	}
	d.mutable()
	id := len(d.names)
	d.names = append(d.names, name)
	d.byName[name] = id
	d.out = append(d.out, nil)
	d.in = append(d.in, nil)
	d.version++
	d.log.append(deltaRec{kind: recAddNode, edge: Edge{From: id}})
	return id
}

// AddNode adds an anonymous node and returns its id. The generated "#i"
// name starts at the node count but probes upward until it is fresh: a
// caller may already have interned a node literally named "#3" (delta edge
// lists and test fixtures do), and returning that existing id here would
// silently alias two logically distinct nodes.
func (d *DB) AddNode() int {
	for i := len(d.names); ; i++ {
		name := fmt.Sprintf("#%d", i)
		if _, taken := d.byName[name]; !taken {
			return d.Node(name)
		}
	}
}

// Lookup returns the id of a named node.
func (d *DB) Lookup(name string) (int, bool) {
	if d.layer != nil {
		return d.layer.lookup(name)
	}
	id, ok := d.byName[name]
	return id, ok
}

// Name returns the name of node id.
func (d *DB) Name(id int) string { return d.names[id] }

// AddEdge adds the arc (from, label, to); nodes must already exist.
func (d *DB) AddEdge(from int, label rune, to int) {
	d.mutable()
	e := Edge{From: from, Label: label, To: to}
	d.out[from] = append(d.out[from], e)
	d.in[to] = append(d.in[to], e)
	d.nEdges++
	fresh := d.sigma[label] == 0
	d.sigma[label]++
	d.version++
	d.log.append(deltaRec{kind: recAddEdge, edge: e, newLbl: fresh})
}

// Index returns the label-indexed CSR adjacency view of the database,
// building it on first use and maintaining it across mutations: an
// insert-only delta covered by the mutation log extends the previous view
// in place (shared CSR storage plus a small overlay, see extendIndex), a
// net-empty delta retains it outright, and anything else — removals, new
// labels, an overgrown overlay, an uncovered revision window — rebuilds.
// The returned Index is immutable and safe for concurrent readers;
// concurrent Index calls are safe as long as no goroutine is mutating the
// DB.
func (d *DB) Index() *Index {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if d.idx != nil && d.idxVersion == d.version {
		return d.idx
	}
	if d.idx != nil {
		if info := d.DeltaSince(d.idxVersion); info != nil && info.InsertOnly() {
			if info.Empty() {
				d.idxVersion = d.version
				d.maint.idxRetained.Add(1)
				return d.idx
			}
			if nix := extendIndex(d, d.idx, info); nix != nil {
				d.idx = nix
				d.idxVersion = d.version
				d.maint.idxExtended.Add(1)
				return d.idx
			}
		}
	}
	d.idx = buildIndex(d)
	d.idxVersion = d.version
	d.maint.idxRebuilt.Add(1)
	return d.idx
}

// Derived is the slot for state that a layer above this package derives from
// the database and wants to live exactly as long as it — beside Index and
// Alphabet, but owned by the caller (ecrpq keeps its atom store here). update
// runs under the slot's lock with what the slot holds (nil at first) and
// leaves its result there; bringing a stale value up to Revision is update's
// business, and the first caller to find it stale does so while the others
// wait. A Snapshot view starts with an empty slot of its own.
func (d *DB) Derived(update func(cur any) any) any {
	d.derivedMu.Lock()
	defer d.derivedMu.Unlock()
	d.derived = update(d.derived)
	return d.derived
}

// Revision returns the database's mutation counter: it is bumped by every
// Node/AddEdge call, so a caller holding derived state (the label index, the
// atom store in the Derived slot) can detect staleness by
// comparing revisions. Mutations must not run concurrently with readers;
// the revision check supports the sequential mutate-then-query pattern.
func (d *DB) Revision() uint64 { return d.version }

// AddEdgeNames adds an arc between named nodes, creating them as needed.
func (d *DB) AddEdgeNames(from string, label rune, to string) {
	d.AddEdge(d.Node(from), label, d.Node(to))
}

// AddPath adds a path from `from` to `to` labelled with word, creating
// fresh intermediate nodes. It supports the paper's convention of using
// words like "##" as arc labels (Theorem 1's construction).
func (d *DB) AddPath(from int, word string, to int) {
	rs := []rune(word)
	if len(rs) == 0 {
		return // ε-paths exist implicitly (length-0 paths)
	}
	cur := from
	for i, r := range rs {
		next := to
		if i < len(rs)-1 {
			next = d.AddNode()
		}
		d.AddEdge(cur, r, next)
		cur = next
	}
}

// NumNodes returns |V_D|.
func (d *DB) NumNodes() int { return len(d.names) }

// NumEdges returns |E_D|.
func (d *DB) NumEdges() int { return d.nEdges }

// Size returns |D| = |V_D| + |E_D|, the size measure used in the paper.
func (d *DB) Size() int { return d.NumNodes() + d.nEdges }

// Out returns the outgoing edges of node u (caller must not modify). A
// frozen view holds no adjacency lists: it lists u's edges from its Index,
// label by label, in a slice of their own.
func (d *DB) Out(u int) []Edge {
	if d.frozen {
		return d.idx.edges(u, true)
	}
	return d.out[u]
}

// In returns the incoming edges of node u (caller must not modify), listed
// from the Index on a frozen view, as Out.
func (d *DB) In(u int) []Edge {
	if d.frozen {
		return d.idx.edges(u, false)
	}
	return d.in[u]
}

// Alphabet returns the sorted set of edge labels. The slice is cached (it
// feeds RelationFor and the alphabet merges on every evaluation) and shared
// between callers: treat it as immutable. A mutation that cannot change the
// label set — a delta touching only labels that keep at least one edge —
// revalidates the cached slice instead of recomputing it; anything else
// re-sorts from the per-label counts. The usual revision contract applies
// (mutations must not run concurrently with readers).
func (d *DB) Alphabet() []rune {
	d.alphaMu.Lock()
	defer d.alphaMu.Unlock()
	if d.alphaOK && d.alphaVersion == d.version {
		return d.alpha
	}
	if d.alphaOK {
		if info := d.DeltaSince(d.alphaVersion); info != nil && d.alphaCoversLocked(info) {
			d.alphaVersion = d.version
			d.maint.alphaRetained.Add(1)
			return d.alpha
		}
	}
	out := make([]rune, 0, len(d.sigma))
	for r := range d.sigma {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	d.alpha = out
	d.alphaOK = true
	d.alphaVersion = d.version
	d.maint.alphaRebuilt.Add(1)
	return d.alpha
}

// alphaCoversLocked reports whether the cached alphabet is still exactly the
// label set after the delta window: every label the window touched must be
// present in the cache iff it still has live edges.
func (d *DB) alphaCoversLocked(info *DeltaInfo) bool {
	check := func(r rune) bool {
		i := sort.Search(len(d.alpha), func(i int) bool { return d.alpha[i] >= r })
		cached := i < len(d.alpha) && d.alpha[i] == r
		return cached == (d.sigma[r] > 0)
	}
	for _, r := range info.Labels {
		if !check(r) {
			return false
		}
	}
	for _, r := range info.NewLabels {
		if !check(r) {
			return false
		}
	}
	return true
}

// PathLabels returns the set of distinct words of length ≤ maxLen that
// label at least one path in D, capped at maxWords entries (<= 0 means
// unlimited), in length-then-lexicographic order: the unfiltered
// WalkPathWords.
func (d *DB) PathLabels(maxLen, maxWords int) []string {
	out := []string{""}
	if maxWords == 1 {
		return out
	}
	d.WalkPathWords(maxLen, 0, nil, func(word string, _ int32) bool {
		out = append(out, word)
		return len(out) != maxWords
	})
	return out
}

// WalkPathWords visits the non-empty words of length ≤ maxLen that label at
// least one path in D, in length-then-lexicographic order, and lets the
// caller steer the walk with an automaton of its own: every word carries a
// caller-defined tag (root for the empty word), and before a live word is
// extended by a symbol, step maps the word's tag and the symbol to the
// extension's tag, or reports false to drop the extension and every word it
// prefixes without any graph work. A nil step keeps everything. visit
// receives each kept word that labels a path with its tag; a false return
// ends the walk. This is how the CXRPQ^≤k evaluation lists its candidate
// images — every image must label a path of D and match a definition body —
// as a product rather than a filter over all path words.
//
// The walk is level-synchronous over the label-indexed CSR view: each live
// word carries one bitset of end nodes, and a word's extensions come from
// the per-symbol adjacency spans of its set bits. Words within a level are
// pairwise distinct by construction (a parent word has exactly one
// extension per symbol), and since parents are lexicographically ordered
// and symbol ids are interned from the sorted alphabet, each level is
// visited already sorted.
func (d *DB) WalkPathWords(maxLen int, root int32, step func(tag int32, sym rune) (int32, bool), visit func(word string, tag int32) bool) {
	n := d.NumNodes()
	if maxLen <= 0 || n == 0 {
		return
	}
	ix := d.Index()
	nSyms := ix.NumSyms()
	words := (n + 63) / 64
	type cfg struct {
		word string
		tag  int32
	}
	// ends holds the end-node bitset of level[i] at [i*words, (i+1)*words).
	level, ends := []cfg{{"", root}}, make([]uint64, words)
	for u := 0; u < n; u++ {
		ends[u/64] |= 1 << (u % 64)
	}
	var next []cfg
	var nextEnds []uint64
	for length := 1; length <= maxLen && len(level) > 0; length++ {
		next, nextEnds = next[:0], nextEnds[:0]
		for i, c := range level {
			from := ends[i*words : (i+1)*words]
			for s := int32(0); s < int32(nSyms); s++ {
				tag := c.tag
				if step != nil {
					var ok bool
					if tag, ok = step(c.tag, ix.Sym(s)); !ok {
						continue
					}
				}
				// Build the extension's end set in place at the slab's tail
				// and give the space back when no edge carries the symbol.
				at := len(nextEnds)
				nextEnds = append(nextEnds, make([]uint64, words)...)
				nb, any := nextEnds[at:], false
				for wi, bs := range from {
					for bs != 0 {
						u := wi*64 + bits.TrailingZeros64(bs)
						bs &= bs - 1
						for _, v := range ix.OutByID(u, s) {
							nb[v/64] |= 1 << (uint(v) % 64)
							any = true
						}
					}
				}
				if !any {
					nextEnds = nextEnds[:at]
					continue
				}
				word := c.word + string(ix.Sym(s))
				if !visit(word, tag) {
					return
				}
				next = append(next, cfg{word, tag})
			}
		}
		level, next = next, level
		ends, nextEnds = nextEnds, ends
	}
}

// HasPathOfLen reports whether D contains a path of exactly n edges (and
// hence of every shorter length). It is the single-pass frontier sweep that
// replaces comparing PathLabels(n) against PathLabels(n-1): only node
// bitsets are propagated, no words are materialized.
func (d *DB) HasPathOfLen(n int) bool {
	if n <= 0 {
		return d.NumNodes() > 0 // length-0 paths exist at every node
	}
	nn := d.NumNodes()
	ix := d.Index()
	words := (nn + 63) / 64
	cur := make([]uint64, words)
	for u := 0; u < nn; u++ {
		cur[u/64] |= 1 << (u % 64)
	}
	for step := 0; step < n; step++ {
		next := make([]uint64, words)
		any := false
		for wi, bs := range cur {
			for bs != 0 {
				u := wi*64 + bits.TrailingZeros64(bs)
				bs &= bs - 1
				for sym := range int32(ix.NumSyms()) {
					for _, v := range ix.OutByID(u, sym) {
						next[v/64] |= 1 << (uint(v) % 64)
						any = true
					}
				}
			}
		}
		if !any {
			return false
		}
		cur = next
	}
	return true
}

// Write serialises the database in the textual format accepted by Read:
// one "from label to" triple per line.
func (d *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u := range d.NumNodes() {
		for _, e := range d.Out(u) {
			if _, err := fmt.Fprintf(bw, "%s %c %s\n", d.names[e.From], e.Label, d.names[e.To]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFull serialises the database in the checkpoint superset of the Write
// format, version 2: a "#cxrpq v2 rev=R" header, one "#node <name>" directive
// per node in id order, the Write edge lines, and a trailer line holding the
// byte count and the CRC-32 (IEEE) of everything before it. Unlike Write,
// the output reconstructs isolated nodes, the exact name→id assignment, and
// the revision lineage — everything the WAL checkpoint needs — and ReadFull
// refuses it damaged. Plain Read treats the directives and the trailer as
// comments, so a checkpoint file still loads as a graph (minus isolated
// nodes).
func (d *DB) WriteFull(w io.Writer) error {
	sum := &sumWriter{w: w, h: crc32.NewIEEE()}
	bw := bufio.NewWriter(sum)
	if _, err := fmt.Fprintf(bw, checkpointHeader+"%d\n", d.version); err != nil {
		return err
	}
	for _, name := range d.names {
		if _, err := fmt.Fprintf(bw, "#node %s\n", name); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := d.Write(sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, checkpointTrailer, sum.n, sum.h.Sum32())
	return err
}

// checkpointHeader begins a version-2 checkpoint's first line, which ends in
// the revision; checkpointTrailer is its last line: the byte count and
// CRC-32 (IEEE) of everything before it.
const (
	checkpointHeader  = "#cxrpq v2 rev="
	checkpointTrailer = "#cxrpq end bytes=%d crc=%08x\n"
)

// sumWriter passes writes through to w, counting and checksumming them.
type sumWriter struct {
	w io.Writer
	h hash.Hash32
	n int64
}

func (s *sumWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.h.Write(p[:n])
	s.n += int64(n)
	return n, err
}

// checkedBody returns the revision a checkpoint's header declares and the
// part of the checkpoint before its trailer, checked against it: the first
// line must be a version-2 header and the last the trailer of everything
// before it, so a changed, lost or added byte anywhere is refused, and so is
// anything else — a "#cxrpq v1" checkpoint, a plain edge list.
func checkedBody(data []byte) (uint64, []byte, error) {
	first, _, _ := bytes.Cut(data, []byte("\n"))
	v, ok := bytes.CutPrefix(first, []byte(checkpointHeader))
	rev, err := strconv.ParseUint(string(v), 10, 64)
	if !ok || err != nil {
		return 0, nil, fmt.Errorf("graph: not a version-2 checkpoint: its first line is %.80q", first)
	}
	end := len(data)
	if end > 0 && data[end-1] == '\n' {
		end--
	}
	at := bytes.LastIndexByte(data[:end], '\n') + 1
	trailer := data[at:]
	if want := fmt.Sprintf(checkpointTrailer, at, crc32.ChecksumIEEE(data[:at])); string(trailer) != want {
		return 0, nil, fmt.Errorf("graph: checkpoint damaged: its last line is %.80q, the content before it checks as %q", trailer, strings.TrimSuffix(want, "\n"))
	}
	return rev, data[:at], nil
}

// ReadFull parses the WriteFull checkpoint format after checking it against
// its header and trailer (checkedBody). "#node" directives are interned in
// file order (restoring the id assignment), the header pins the revision
// counter, and every remaining line — including lines whose from-node
// happens to start with '#', which plain Read would drop as comments — is
// parsed as an edge when its first field names a declared node. Lines
// starting with '#' that do not resolve to a declared node are comments.
func ReadFull(r io.Reader) (*DB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	rev, body, err := checkedBody(data)
	if err != nil {
		return nil, err
	}
	d := New()
	err = eachLine(bytes.NewReader(body), func(lineNo int, line string) error {
		switch {
		case line == "" || lineNo == 1: // the header, read by checkedBody
			return nil
		case strings.HasPrefix(line, "#node "):
			d.Node(strings.TrimSpace(strings.TrimPrefix(line, "#node ")))
			return nil
		}
		if strings.HasPrefix(line, "#") {
			if first := strings.Fields(line)[0]; !d.hasName(first) {
				return nil // genuine comment
			}
		}
		from, label, to, err := parseEdgeLine(lineNo, line)
		if err == nil {
			d.AddEdgeNames(from, label, to)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	d.forceRevision(rev)
	return d, nil
}

func (d *DB) hasName(name string) bool {
	_, ok := d.byName[name]
	return ok
}

// forceRevision pins the revision counter to rev (used when reloading a
// checkpoint: the reload replays a different op count than the lineage the
// WAL's record windows refer to). The mutation log is cleared — DeltaSince
// windows older than rev report uncovered, which is the truth.
func (d *DB) forceRevision(rev uint64) {
	d.version = rev
	d.log = deltaLog{start: rev}
}

// Read parses the textual format: one edge per line, "from label to";
// blank lines and lines starting with '#' are ignored.
func Read(r io.Reader) (*DB, error) {
	d := New()
	err := eachEdge(r, func(from string, label rune, to string) { d.AddEdgeNames(from, label, to) })
	if err != nil {
		return nil, err
	}
	return d, nil
}

// maxLine is the longest line the text formats read, the request body limit
// of cxrpq-serve.
const maxLine = 16 << 20

// eachLine calls f with the number and the space-trimmed text of every line
// of r until f fails. Every reader of the text formats goes through it, so
// they split lines alike and refuse the same over-long ones.
func eachLine(r io.Reader, f func(lineNo int, line string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if err := f(lineNo, strings.TrimSpace(sc.Text())); err != nil {
			return err
		}
	}
	return sc.Err()
}

// eachEdge calls f with every edge line of the plain format, skipping blank
// lines and '#' comments.
func eachEdge(r io.Reader, f func(from string, label rune, to string)) error {
	return eachLine(r, func(lineNo int, line string) error {
		if line == "" || strings.HasPrefix(line, "#") {
			return nil
		}
		from, label, to, err := parseEdgeLine(lineNo, line)
		if err == nil {
			f(from, label, to)
		}
		return err
	})
}

// Parse parses the textual format from a string.
func Parse(s string) (*DB, error) { return Read(strings.NewReader(s)) }

// MustParse is Parse but panics on error.
func MustParse(s string) *DB {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}
