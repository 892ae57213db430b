// Package workload generates the synthetic graph databases used by the
// examples and experiments: random labelled graphs, the genealogy graphs of
// Figure 1, the message networks motivating G3 of Figure 2, and scalable
// path/cycle families for the data-complexity scaling experiments.
package workload

import (
	"fmt"
	"strings"

	"cxrpq/internal/graph"
)

// RNG is a small deterministic PRNG (SplitMix-style) so experiments are
// reproducible without importing math/rand state. It is exported so
// external test packages (the differential fuzz harness, benchmarks) can
// drive the generators with their own seeds.
type RNG struct{ s uint64 }

// NewRNG returns a deterministic generator.
func NewRNG(seed int64) *RNG { return &RNG{s: uint64(seed)*2654435761 + 1} }

func (r *RNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.next() % uint64(n)) }

// Random returns a random multigraph with the given node count, edge count
// and label alphabet.
func Random(seed int64, nodes, edges int, alphabet string) *graph.DB {
	r := NewRNG(seed)
	d := graph.New()
	for i := 0; i < nodes; i++ {
		d.AddNode()
	}
	al := []rune(alphabet)
	for i := 0; i < edges; i++ {
		d.AddEdge(r.Intn(nodes), al[r.Intn(len(al))], r.Intn(nodes))
	}
	return d
}

// Genealogy builds a parent/supervisor graph (labels p, s) with the given
// number of persons: a binary parent forest plus random supervision arcs,
// as in the Figure 1 examples.
func Genealogy(seed int64, persons int) *graph.DB {
	r := NewRNG(seed)
	d := graph.New()
	for i := 0; i < persons; i++ {
		d.Node(fmt.Sprintf("p%d", i))
	}
	for i := 1; i < persons; i++ {
		parent := r.Intn(i)
		d.AddEdge(parent, 'p', i)
	}
	for i := 0; i < persons/2; i++ {
		a, b := r.Intn(persons), r.Intn(persons)
		if a != b {
			d.AddEdge(a, 's', b)
		}
	}
	return d
}

// MessageNetwork builds the hidden-communication scenario motivating G3 of
// Figure 2: persons exchanging text messages (labels from alphabet), with
// `pairs` hidden pairs that communicate by routing a secret message
// sequence of length seqLen through chains of intermediaries, repeated
// `reps` times towards a mutual contact.
func MessageNetwork(seed int64, persons int, alphabet string, pairs, seqLen, reps int) *graph.DB {
	r := NewRNG(seed)
	d := graph.New()
	for i := 0; i < persons; i++ {
		d.Node(fmt.Sprintf("u%d", i))
	}
	al := []rune(alphabet)
	// background noise
	for i := 0; i < persons*2; i++ {
		d.AddEdge(r.Intn(persons), al[r.Intn(len(al))], r.Intn(persons))
	}
	// hidden pairs
	for p := 0; p < pairs; p++ {
		v1 := d.Node(fmt.Sprintf("h%d_a", p))
		v2 := d.Node(fmt.Sprintf("h%d_b", p))
		mutual := d.Node(fmt.Sprintf("h%d_m", p))
		var x, y strings.Builder
		for i := 0; i < seqLen; i++ {
			x.WriteRune(al[r.Intn(len(al))])
			y.WriteRune(al[r.Intn(len(al))])
		}
		// v1 -x-> v2, v2 -y-> v1
		d.AddPath(v1, x.String(), v2)
		d.AddPath(v2, y.String(), v1)
		// v1 -x^reps-> mutual, v2 -y^reps-> mutual
		d.AddPath(v1, strings.Repeat(x.String(), reps), mutual)
		d.AddPath(v2, strings.Repeat(y.String(), reps), mutual)
	}
	return d
}

// Path returns a single path labelled with word repeated `reps` times.
func Path(word string, reps int) *graph.DB {
	d := graph.New()
	s := d.Node("s")
	t := d.Node("t")
	d.AddPath(s, strings.Repeat(word, reps), t)
	return d
}

// Cycle returns a labelled cycle over the alphabet, for unbounded-image
// workloads.
func Cycle(alphabet string, length int) *graph.DB {
	d := graph.New()
	al := []rune(alphabet)
	nodes := make([]int, length)
	for i := range nodes {
		nodes[i] = d.AddNode()
	}
	for i := range nodes {
		d.AddEdge(nodes[i], al[i%len(al)], nodes[(i+1)%len(nodes)])
	}
	return d
}

// Layered returns a layered DAG with `layers` layers of `width` nodes and
// random labelled arcs between consecutive layers; scaling families with
// predictable diameter for the E6/E8 experiments.
func Layered(seed int64, layers, width int, alphabet string) *graph.DB {
	r := NewRNG(seed)
	d := graph.New()
	al := []rune(alphabet)
	ids := make([][]int, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]int, width)
		for w := 0; w < width; w++ {
			ids[l][w] = d.Node(fmt.Sprintf("l%d_%d", l, w))
		}
	}
	for l := 0; l+1 < layers; l++ {
		for w := 0; w < width; w++ {
			// two outgoing arcs per node
			for j := 0; j < 2; j++ {
				d.AddEdge(ids[l][w], al[r.Intn(len(al))], ids[l+1][r.Intn(width)])
			}
		}
	}
	return d
}

// MutationStream returns the live-mutation workload of the
// delta-maintenance differentials: a random base graph of `base` nodes over
// labels a/b plus a stream of `steps` insert-only deltas, each interning
// `perStep` fresh "arrival" nodes whose edges point INTO the existing
// graph (new users messaging existing ones — the append-mostly shape of an
// event stream). Because nothing points at an arrival node, the set of
// sources whose reachability can change is tiny, which is exactly the case
// delta maintenance converts from O(rebuild) to O(delta); every delta
// still changes the answer set of queries over a/b, so result caches
// cannot mask the work. The same (seed, …) arguments always produce the
// same base graph and stream.
func MutationStream(seed int64, base, steps, perStep int) (*graph.DB, []graph.Delta) {
	r := NewRNG(seed)
	d := graph.New()
	for i := 0; i < base; i++ {
		d.Node(fmt.Sprintf("n%d", i))
	}
	al := []rune("ab")
	for i := 0; i < 3*base; i++ {
		d.AddEdge(r.Intn(base), al[r.Intn(2)], r.Intn(base))
	}
	deltas := make([]graph.Delta, steps)
	for s := 0; s < steps; s++ {
		var delta graph.Delta
		for j := 0; j < perStep; j++ {
			fresh := fmt.Sprintf("u%d_%d", s, j)
			for e := 0; e <= r.Intn(2); e++ {
				delta.Add = append(delta.Add, graph.DeltaEdge{
					From:  fresh,
					Label: al[r.Intn(2)],
					To:    fmt.Sprintf("n%d", r.Intn(base)),
				})
			}
		}
		deltas[s] = delta
	}
	return d, deltas
}

// GMark returns a gMark-style scaled workload graph over labels a/b/c, the
// shape the batched-kernel tests and BenchmarkReachBatch target:
// 'a' edges follow a heavy-tailed out-degree distribution (geometric
// doubling, capped) with half of all targets drawn from a small popular
// prefix (in-degree skew: hubs), 'b' edges are sparse uniform noise, and 'c' edges form a
// locality chain with occasional long shortcuts (diameter for the
// level-synchronous frontier). Deterministic in (seed, nodes).
func GMark(seed int64, nodes int) *graph.DB {
	r := NewRNG(seed)
	d := graph.New()
	for i := 0; i < nodes; i++ {
		d.AddNode()
	}
	hub := nodes / 16
	if hub < 1 {
		hub = 1
	}
	degCap := nodes / 8
	if degCap < 4 {
		degCap = 4
	}
	for u := 0; u < nodes; u++ {
		deg := 1
		for deg < degCap && r.Intn(4) == 0 {
			deg *= 4
		}
		for j := 0; j < deg; j++ {
			v := r.Intn(nodes)
			if r.Intn(2) == 0 {
				v = r.Intn(hub)
			}
			d.AddEdge(u, 'a', v)
		}
	}
	for i := 0; i < nodes; i++ {
		d.AddEdge(r.Intn(nodes), 'b', r.Intn(nodes))
	}
	for u := 0; u+1 < nodes; u++ {
		d.AddEdge(u, 'c', u+1)
		if r.Intn(8) == 0 {
			d.AddEdge(u, 'c', r.Intn(nodes))
		}
	}
	return d
}

// SkewedJoin returns the join-order stress graph of the planner
// benchmarks and differential tests: a dense h-labelled bipartite hub
// (hub × hub pairs ai -h-> bj) plus a short selective s-chain off a single
// hub target (b0 -s-> c0 -s-> c1). On queries joining the hub atom with
// the selective atoms, a most-bound-first order ties at zero and scans the
// hub first, while the cost-based order starts from the selective atoms — the cardinality skew the planning layer exists for.
func SkewedJoin(hub int) *graph.DB {
	d := graph.New()
	as := make([]int, hub)
	bs := make([]int, hub)
	for i := 0; i < hub; i++ {
		as[i] = d.Node(fmt.Sprintf("a%d", i))
	}
	for j := 0; j < hub; j++ {
		bs[j] = d.Node(fmt.Sprintf("b%d", j))
	}
	for _, a := range as {
		for _, b := range bs {
			d.AddEdge(a, 'h', b)
		}
	}
	c0 := d.Node("c0")
	c1 := d.Node("c1")
	d.AddEdge(bs[0], 's', c0)
	d.AddEdge(c0, 's', c1)
	return d
}

// TriStar returns the free-connex enumeration stress graph: `hubs`
// center nodes, each with `fanout` private a-, b- and c-labelled leaves.
// On the star query ans(x) <- (x,a,y1), (x,b,y2), (x,c,y3) a backtracking
// join enumerates fanout³ satisfying assignments per center — all
// projecting to the same output tuple — while the Yannakakis program's
// enumeration pass skips the unneeded leaf variables and emits each
// center once after the semijoin passes certified its three arms.
func TriStar(hubs, fanout int) *graph.DB {
	d := graph.New()
	for h := 0; h < hubs; h++ {
		c := d.Node(fmt.Sprintf("h%d", h))
		for _, l := range []rune{'a', 'b', 'c'} {
			for j := 0; j < fanout; j++ {
				d.AddEdge(c, l, d.AddNode())
			}
		}
	}
	return d
}

// DeadEndChain returns the semijoin stress graph: a four-layer DAG
// over the single label a whose dense hops are twisted against each other
// — first-hop edges land only on middle sources whose second-hop targets
// have no third-hop continuation, and third-hop sources are fed only by
// middle nodes with no first-hop predecessors — except for `bridge`
// dedicated chains threading all three hops. Each atom's relation has
// ~width·fanout edges of identical shape, so whichever end a backtracking
// join anchors at, it explores ~width·fanout² partial assignments that
// die one atom later; the Yannakakis bottom-up pass deletes every dead
// pair in two linear sweeps before enumeration.
func DeadEndChain(seed int64, width, fanout, bridge int) *graph.DB {
	r := NewRNG(seed)
	d := graph.New()
	mk := func(prefix string, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = d.Node(fmt.Sprintf("%s%d", prefix, i))
		}
		return ids
	}
	l0 := mk("s", width)   // chain sources
	m1a := mk("ma", width) // middle-1: reachable from l0, leads nowhere useful
	m1b := mk("mb", width) // middle-1: unreachable from l0, feeds m2b
	m2a := mk("na", width) // middle-2: reachable via m1a, no outgoing hop
	m2b := mk("nb", width) // middle-2: feeds l3, fed only by m1b
	l3 := mk("t", width)   // chain targets
	for i := 0; i < width; i++ {
		for j := 0; j < fanout; j++ {
			d.AddEdge(l0[i], 'a', m1a[r.Intn(width)])
			d.AddEdge(m1a[i], 'a', m2a[r.Intn(width)])
			d.AddEdge(m1b[i], 'a', m2b[r.Intn(width)])
			d.AddEdge(m2b[i], 'a', l3[r.Intn(width)])
		}
	}
	// The surviving chains: dedicated nodes so the answer set is exactly
	// the bridge pairs plus whatever the random fans happen to align.
	for b := 0; b < bridge && b < width; b++ {
		d.AddEdge(l0[b], 'a', m1b[b])
		d.AddEdge(m2a[b], 'a', l3[b])
		d.AddEdge(m1a[b], 'a', m2b[b])
	}
	return d
}
