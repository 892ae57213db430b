package main

// Input generation: graphs, op lists and update batches, all drawn from the
// seed in this process. The server only ever sees the generated text.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// genGraph is a generated graph. Node i is named n<i>: the text format has
// no way to name an anonymous node (graph.Read drops "#17 a #18" as a
// comment) and no way to carry an isolated node, so every node is named and
// every node has an edge.
type genGraph struct {
	spec   *graphSpec
	n      int
	typeOf []int
	byType [][]int
	labels []rune
	from   []int      // per predicate: index of its source type
	to     []int      // per predicate: index of its target type
	edges  [][3]int32 // from, predicate index, to
	out    [][]int32  // per node: flattened (predicate index, to) pairs
}

func nodeName(i int) string { return "n" + strconv.Itoa(i) }

func (g *genGraph) typeIndex(name string) int {
	for i, t := range g.spec.Types {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// degreeSequence returns n out-degrees whose histogram is the distribution's
// as exactly as n allows: the i-th is the distribution's quantile at
// (i+0.5)/n. Which node gets which degree is then shuffled by the seed. A
// fixed sequence keeps the edge count, and roughly the size of every join,
// the same on every seed, so that a metric's spread across seeds is noise
// and not a different amount of work.
func degreeSequence(d distSpec, n int) []int {
	span := d.Max - d.Min
	var cdf []float64
	if d.Kind == "zipf" {
		s := d.S
		if s <= 1 {
			s = 1.5
		}
		total := 0.0
		for k := 0; k <= span; k++ {
			total += math.Pow(float64(1+k), -s)
			cdf = append(cdf, total)
		}
		for k := range cdf {
			cdf[k] /= total
		}
	}
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		switch d.Kind {
		case "uniform":
			out[i] = d.Min + int(q*float64(span+1))
		case "zipf":
			out[i] = d.Min + sort.SearchFloat64s(cdf, q)
		default: // const
			out[i] = d.Min
		}
	}
	return out
}

// targetStubs splits edges edge ends over nt targets: equally for "uniform",
// in proportion to (30+k)^-1.5 for "zipf" (target 0 the most popular; the top
// target takes under 2 % of the ends), by largest remainder.
func targetStubs(in string, nt, edges int) []int {
	w := make([]float64, nt)
	total := 0.0
	for k := range w {
		w[k] = 1
		if in == "zipf" {
			w[k] = math.Pow(float64(30+k), -1.5)
		}
		total += w[k]
	}
	out := make([]int, nt)
	type rem struct {
		k int
		f float64
	}
	rems := make([]rem, nt)
	given := 0
	for k := range w {
		x := float64(edges) * w[k] / total
		out[k] = int(x)
		given += out[k]
		rems[k] = rem{k, x - float64(out[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].f > rems[j].f })
	for i := 0; given < edges; i, given = i+1, given+1 {
		out[rems[i%nt].k]++
	}
	return out
}

func generateGraph(spec *graphSpec, seed int64) (*genGraph, error) {
	r := rand.New(rand.NewSource(seed))
	g := &genGraph{spec: spec, n: spec.Nodes, typeOf: make([]int, spec.Nodes),
		byType: make([][]int, len(spec.Types)), out: make([][]int32, spec.Nodes)}
	// Types take contiguous id ranges in spec order, by cumulative share.
	var total float64
	for _, t := range spec.Types {
		total += t.Share
	}
	next, acc := 0, 0.0
	for ti, t := range spec.Types {
		acc += t.Share
		end := int(acc / total * float64(spec.Nodes))
		if ti == len(spec.Types)-1 {
			end = spec.Nodes
		}
		for ; next < end; next++ {
			g.typeOf[next] = ti
			g.byType[ti] = append(g.byType[ti], next)
		}
	}
	seen := map[[3]int32]bool{}
	touched := make([]bool, spec.Nodes)
	for pi, p := range spec.Preds {
		lr := []rune(p.Label)
		from, to := g.typeIndex(p.From), g.typeIndex(p.To)
		if len(lr) != 1 || from < 0 || to < 0 || len(g.byType[from]) == 0 || len(g.byType[to]) == 0 {
			return nil, fmt.Errorf("db %s: predicate %q needs a one-rune label and populated types", spec.DB, p.Label)
		}
		g.labels = append(g.labels, lr[0])
		g.from, g.to = append(g.from, from), append(g.to, to)
		// Fixed degree sequences on both sides, wired at random.
		sources, targets := g.byType[from], g.byType[to]
		degs := degreeSequence(p.Out, len(sources))
		r.Shuffle(len(degs), func(i, j int) { degs[i], degs[j] = degs[j], degs[i] })
		total := 0
		for _, d := range degs {
			total += d
		}
		var stubs []int32
		for k, c := range targetStubs(p.In, len(targets), total) {
			for ; c > 0; c-- {
				stubs = append(stubs, int32(targets[k]))
			}
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		next := 0
		for i, u := range sources {
			for d := degs[i]; d > 0; d-- {
				e := [3]int32{int32(u), int32(pi), stubs[next]}
				// A parallel edge: trade the stub for a later one a few
				// times, then give the edge up.
				for try := 0; seen[e] && try < 8 && next+1 < len(stubs); try++ {
					j := next + 1 + r.Intn(len(stubs)-next-1)
					stubs[next], stubs[j] = stubs[j], stubs[next]
					e[2] = stubs[next]
				}
				next++
				if seen[e] {
					continue
				}
				seen[e] = true
				g.edges = append(g.edges, e)
				g.out[u] = append(g.out[u], e[1], e[2])
				touched[u], touched[e[2]] = true, true
			}
		}
	}
	// The text format cannot carry a node without an edge, so a node the
	// degree draws left untouched gets one edge of the first predicate that
	// leaves (or, failing that, enters) its type.
	for u, ok := range touched {
		if ok {
			continue
		}
		placed := false
		for pi := range spec.Preds {
			from, to := g.from[pi], g.to[pi]
			switch g.typeOf[u] {
			case from:
				v := g.byType[to][r.Intn(len(g.byType[to]))]
				g.edges = append(g.edges, [3]int32{int32(u), int32(pi), int32(v)})
				g.out[u] = append(g.out[u], int32(pi), int32(v))
				touched[v] = true
			case to:
				v := g.byType[from][r.Intn(len(g.byType[from]))]
				g.edges = append(g.edges, [3]int32{int32(v), int32(pi), int32(u)})
				g.out[v] = append(g.out[v], int32(pi), int32(u))
				touched[v] = true
			default:
				continue
			}
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("db %s: no predicate touches type %s", spec.DB, spec.Types[g.typeOf[u]].Name)
		}
	}
	return g, nil
}

// text renders the graph in the server's load format.
func (g *genGraph) text() string {
	var b strings.Builder
	for _, e := range g.edges {
		b.WriteString(nodeName(int(e[0])))
		b.WriteByte(' ')
		b.WriteRune(g.labels[e[1]])
		b.WriteByte(' ')
		b.WriteString(nodeName(int(e[2])))
		b.WriteByte('\n')
	}
	return b.String()
}

// step follows one edge of predicate pi out of u, or returns -1.
func (g *genGraph) step(r *rand.Rand, u, pi int) int {
	adj := g.out[u]
	var cand []int32
	for i := 0; i < len(adj); i += 2 {
		if int(adj[i]) == pi {
			cand = append(cand, adj[i+1])
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return int(cand[r.Intn(len(cand))])
}

// op is one unit of client work: a single request, or a first page followed
// by the continuation pages its kind prescribes.
type op struct {
	Kind      string   `json:"kind"` // query | first | drain | ranked
	Template  string   `json:"template"`
	DB        string   `json:"db"`
	Query     string   `json:"query"`
	Mode      string   `json:"mode"` // eval | bool | check
	Semantics string   `json:"semantics,omitempty"`
	K         int      `json:"k,omitempty"`
	Tuple     []string `json:"tuple,omitempty"`
}

// atom is one instantiated conjunct: its form and the predicates filling it.
type atom struct {
	form  string
	preds []int
}

func (a atom) text(g *genGraph) string {
	l := func(i int) string { return string(g.labels[a.preds[i]]) }
	switch a.form {
	case "LM":
		return l(0) + l(1)
	case "L|M":
		return l(0) + "|" + l(1)
	case "L+":
		return l(0) + "+"
	case "LM+":
		return l(0) + l(1) + "+"
	default:
		return l(0)
	}
}

// walk follows the atom from u along graph edges and returns where a witness
// path ends, or -1 when the random walk dead-ends.
func (a atom) walk(r *rand.Rand, g *genGraph, u int) int {
	switch a.form {
	case "LM", "LM+":
		if u = g.step(r, u, a.preds[0]); u < 0 {
			return -1
		}
		return g.step(r, u, a.preds[1])
	case "L|M":
		i := r.Intn(2)
		if v := g.step(r, u, a.preds[i]); v >= 0 {
			return v
		}
		return g.step(r, u, a.preds[1-i])
	default:
		return g.step(r, u, a.preds[0])
	}
}

// pickAtom draws predicates for one atom form leaving type from (-1: any
// type) and returns the atom and the type it arrives at. ok is false when
// the schema has no predicates of the needed types.
func pickAtom(r *rand.Rand, g *genGraph, form string, from int) (atom, int, bool) {
	preds := g.spec.Preds
	leaving := func(t int, loop bool) []int {
		var c []int
		for i, p := range preds {
			if (t < 0 || g.from[i] == t) && (!loop || (g.from[i] == g.to[i] && p.Closure)) {
				c = append(c, i)
			}
		}
		return c
	}
	draw := func(c []int) (int, bool) {
		if len(c) == 0 {
			return 0, false
		}
		return c[r.Intn(len(c))], true
	}
	to := func(i int) int { return g.to[i] }
	switch form {
	case "L":
		p, ok := draw(leaving(from, false))
		return atom{form, []int{p}}, to(p), ok
	case "L+":
		p, ok := draw(leaving(from, true))
		return atom{form, []int{p}}, to(p), ok
	case "LM", "LM+":
		p, ok := draw(leaving(from, false))
		if !ok {
			return atom{}, 0, false
		}
		q, ok := draw(leaving(to(p), form == "LM+"))
		return atom{form, []int{p, q}}, to(q), ok
	case "L|M":
		p, ok := draw(leaving(from, false))
		if !ok {
			return atom{}, 0, false
		}
		var par []int
		for i, x := range preds {
			if i != p && x.From == preds[p].From && x.To == preds[p].To {
				par = append(par, i)
			}
		}
		q, ok := draw(par)
		if ok && q < p {
			p, q = q, p // one text per unordered pair
		}
		return atom{form, []int{p, q}}, to(p), ok
	}
	return atom{}, 0, false
}

// shapeQuery instantiates a chain, star or cycle template by a walk over the
// schema and returns the query text plus, for check ops, a tuple obtained by
// walking the same atoms through the graph (a true witness unless the random
// walk dead-ends, in which case a random node of the right type stands in).
func shapeQuery(r *rand.Rand, g *genGraph, t *templateSpec) (text string, tuple []string, ok bool) {
	n := len(t.Atoms)
	atoms := make([]atom, n)
	fromVar, toVar := make([]int, n), make([]int, n)
	varType := map[int]int{}
	cur := -1
	for i, forms := range t.Atoms {
		fs := strings.Fields(forms)
		form := fs[r.Intn(len(fs))]
		from := cur
		if t.Shape == "star" && i > 0 {
			from = varType[0]
		}
		a, to, ok := pickAtom(r, g, form, from)
		if !ok {
			return "", nil, false
		}
		atoms[i] = a
		ft := g.from[a.preds[0]]
		switch t.Shape {
		case "star":
			fromVar[i], toVar[i] = 0, i+1
		case "cycle":
			fromVar[i], toVar[i] = i, (i+1)%n
		default:
			fromVar[i], toVar[i] = i, i+1
		}
		varType[fromVar[i]] = ft
		if t.Shape == "cycle" && i == n-1 {
			if to != varType[0] {
				return "", nil, false
			}
		} else {
			varType[toVar[i]] = to
		}
		cur = to
	}
	nv := len(varType)
	var outVars []int
	switch t.Out {
	case "all":
		for v := 0; v < nv; v++ {
			outVars = append(outVars, v)
		}
	case "first":
		outVars = []int{0}
	default: // ends
		outVars = []int{0, nv - 1}
	}
	var b strings.Builder
	b.WriteString("ans(")
	for i, v := range outVars {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "x%d", v)
	}
	b.WriteString(")")
	for i, a := range atoms {
		fmt.Fprintf(&b, "\nx%d x%d : %s", fromVar[i], toVar[i], a.text(g))
	}

	// Witness walk: bind variable 0 to a node with the first atom's first
	// edge, then follow each atom whose source is bound.
	bound := map[int]int{}
	starts := g.byType[varType[0]]
	bound[0] = starts[r.Intn(len(starts))]
	for i, a := range atoms {
		u, has := bound[fromVar[i]]
		if !has {
			continue
		}
		if _, done := bound[toVar[i]]; done {
			continue
		}
		if v := a.walk(r, g, u); v >= 0 {
			bound[toVar[i]] = v
		}
	}
	for _, v := range outVars {
		node, has := bound[v]
		if !has {
			cands := g.byType[varType[v]]
			node = cands[r.Intn(len(cands))]
		}
		tuple = append(tuple, nodeName(node))
	}
	return b.String(), tuple, true
}

// textQuery fills the %1..%9 slots of a literal template with distinct
// labels and draws a check tuple: the endpoints of a random edge for the
// first two head variables (so that a share of checks is true), random
// nodes for the rest.
func textQuery(r *rand.Rand, g *genGraph, t *templateSpec) (text string, tuple []string) {
	perm := r.Perm(len(g.labels))
	text = t.Text
	for i := 1; i <= 9 && i <= len(perm); i++ {
		text = strings.ReplaceAll(text, "%"+strconv.Itoa(i), string(g.labels[perm[i-1]]))
	}
	head := text[strings.Index(text, "(")+1 : strings.Index(text, ")")]
	arity := 0
	if strings.TrimSpace(head) != "" {
		arity = len(strings.Split(head, ","))
	}
	e := g.edges[r.Intn(len(g.edges))]
	for i := 0; i < arity; i++ {
		switch {
		case i == 0:
			tuple = append(tuple, nodeName(int(e[0])))
		case i == 1 && r.Intn(2) == 0:
			tuple = append(tuple, nodeName(int(e[2])))
		default:
			tuple = append(tuple, nodeName(r.Intn(g.n)))
		}
	}
	return text, tuple
}

// deck deals weighted choices in shuffled rounds: every round holds each
// card exactly as often as its weight says, so any prefix of the op list has
// the mix of the whole list and two seeds differ in order, not in mix.
type deck struct {
	cards []string
	pos   int
}

func newDeck(weights map[string]int) *deck {
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := &deck{}
	for _, k := range keys {
		for i := 0; i < weights[k]; i++ {
			d.cards = append(d.cards, k)
		}
	}
	return d
}

func (d *deck) draw(r *rand.Rand) string {
	if d.pos == 0 {
		r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// generateOps draws n ops. Templates with slots or shapes never repeat a
// (text, mode, k, tuple) combination across one generator, so a server that
// has seen the warm-up list has still seen none of the measured one; literal
// templates repeat by design.
type opGenerator struct {
	spec   *workloadSpec
	graphs map[string]*genGraph
	r      *rand.Rand
	seen   map[string]bool

	templates *deck
	byName    map[string]*templateSpec
	decks     map[string]*deck // per template: kinds, modes and k
}

func newOpGenerator(spec *workloadSpec, graphs map[string]*genGraph, seed int64) *opGenerator {
	g := &opGenerator{spec: spec, graphs: graphs, r: rand.New(rand.NewSource(seed ^ 0x5eed0b5)), seen: map[string]bool{},
		byName: map[string]*templateSpec{}, decks: map[string]*deck{}}
	weights := map[string]int{}
	for i := range spec.Templates {
		t := &spec.Templates[i]
		weights[t.Name] = t.Weight
		g.byName[t.Name] = t
		if len(t.Kinds) > 0 {
			g.decks["kind:"+t.Name] = newDeck(t.Kinds)
		}
		if len(t.Modes) > 0 {
			g.decks["mode:"+t.Name] = newDeck(t.Modes)
		}
		if len(t.K) > 0 {
			ks := map[string]int{}
			for _, k := range t.K {
				ks[strconv.Itoa(k)]++
			}
			g.decks["k:"+t.Name] = newDeck(ks)
		}
	}
	g.templates = newDeck(weights)
	return g
}

func (og *opGenerator) next() (op, error) {
	r := og.r
	for attempt := 0; attempt < 10000; attempt++ {
		t := og.byName[og.templates.draw(r)]
		g := og.graphs[t.DB]
		o := op{Kind: "query", Template: t.Name, DB: t.DB, Semantics: t.Semantics}
		if d := og.decks["kind:"+t.Name]; d != nil {
			o.Kind = d.draw(r)
		}
		var tuple []string
		fresh := t.Shape != "" || strings.Contains(t.Text, "%")
		if t.Shape != "" {
			var ok bool
			if o.Query, tuple, ok = shapeQuery(r, g, t); !ok {
				continue
			}
		} else {
			o.Query, tuple = textQuery(r, g, t)
		}
		o.Mode = "eval"
		if d := og.decks["mode:"+t.Name]; d != nil && o.Kind == "query" {
			o.Mode = d.draw(r)
		}
		if o.Mode == "check" {
			o.Tuple = tuple
		}
		if d := og.decks["k:"+t.Name]; d != nil {
			o.K, _ = strconv.Atoi(d.draw(r))
		}
		if fresh {
			// The server pools sessions by query text alone, so freshness
			// is a property of the text.
			if og.seen[o.Query] {
				continue
			}
			og.seen[o.Query] = true
		}
		return o, nil
	}
	return op{}, fmt.Errorf("workload %s: the templates cannot produce another unseen text; add predicates or forms", og.spec.Name)
}

func (og *opGenerator) take(n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		var err error
		if ops[i], err = og.next(); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// updateBatch is one /update request of update_read with the follow-up
// check that proves it visible.
type updateBatch struct {
	Add, Del string // edge lists in the /update text format
	Delete   bool
	Witness  []string // (arrival node, base node) of one edge of the batch
}

// generateUpdates draws MutationStream-style batches: each insert batch adds
// `arrivals` fresh nodes u<s>_<j> with one or two edges into the base graph
// (nothing points at an arrival, so few sources change their reachability),
// and every deleteEvery-th batch removes the edges of the insert batch
// deleteLag steps earlier.
func generateUpdates(u *updateSpec, g *genGraph, seed int64, n int) []updateBatch {
	r := rand.New(rand.NewSource(seed ^ 0x0bad5eed))
	out := make([]updateBatch, n)
	adds := make([]string, n)
	for s := 0; s < n; s++ {
		if u.DeleteEvery > 0 && s >= u.DeleteLag && s%u.DeleteEvery == u.DeleteEvery-1 && adds[s-u.DeleteLag] != "" {
			src := s - u.DeleteLag
			out[s] = updateBatch{Del: adds[src], Delete: true, Witness: out[src].Witness}
			adds[src] = ""
			continue
		}
		var b strings.Builder
		var bt updateBatch
		for j := 0; j < u.Arrivals; j++ {
			fresh := fmt.Sprintf("u%d_%d", s, j)
			used := map[string]bool{}
			for e := r.Intn(2); e >= 0; e-- {
				label := string(g.labels[r.Intn(len(g.labels))])
				to := nodeName(r.Intn(g.n))
				if used[label+to] {
					continue
				}
				used[label+to] = true
				fmt.Fprintf(&b, "%s %s %s\n", fresh, label, to)
				if bt.Witness == nil {
					bt.Witness = []string{fresh, to}
				}
			}
		}
		bt.Add = b.String()
		adds[s] = bt.Add
		out[s] = bt
	}
	return out
}
