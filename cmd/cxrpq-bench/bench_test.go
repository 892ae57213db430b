package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

const benchDirFromHere = "../../bench"

// The same seed must give byte-identical inputs, and another seed must not:
// the server only ever sees generated text, so this is what makes two runs
// comparable.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		spec, err := loadSpec(benchDirFromHere, name)
		if err != nil {
			t.Fatal(err)
		}
		render := func(seed int64) []byte {
			in, err := generateInputs(spec, seed, 300)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			b, err := json.Marshal(struct {
				Texts   map[string]string
				Ops     []op
				Warmup  []op
				Updates []updateBatch
			}{in.texts, in.ops, in.warmup, in.updates})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b, c := render(7), render(7), render(8)
		if string(a) != string(b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
		// A shorter run of a seed sends a prefix of a longer one: -seconds
		// changes how much is measured, not what.
		long, err := generateInputs(spec, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		short, err := generateInputs(spec, 7, 120)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(short.ops, long.ops[:120]) || (spec.Update != nil && !reflect.DeepEqual(short.updates, long.updates[:120])) {
			t.Errorf("%s: the 120-op list of seed 7 is not a prefix of its 300-op list", name)
		}
	}
}

// Every node must survive the text format: named n<i>, and with at least one
// edge, whatever the degree draws left out.
func TestGeneratedGraphKeepsEveryNode(t *testing.T) {
	spec := &graphSpec{DB: "g", Nodes: 200,
		Types: []typeSpec{{Name: "x", Share: 1}, {Name: "y", Share: 1}},
		Preds: []predSpec{{Label: "a", From: "x", To: "y", Out: distSpec{Kind: "uniform", Min: 0, Max: 1}}}}
	for seed := int64(0); seed < 20; seed++ {
		g, err := generateGraph(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int32]bool{}
		for _, e := range g.edges {
			seen[e[0]], seen[e[2]] = true, true
		}
		if len(seen) != spec.Nodes {
			t.Fatalf("seed %d: %d of %d nodes have an edge", seed, len(seen), spec.Nodes)
		}
	}
}

func TestFreshTemplatesNeverRepeatAText(t *testing.T) {
	spec, err := loadSpec(benchDirFromHere, "crpq_cold")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generateInputs(spec, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range append(in.warmup, in.ops...) {
		if seen[o.Query] {
			t.Fatalf("text generated twice:\n%s", o.Query)
		}
		seen[o.Query] = true
	}
}

// "The highest percentile with at least ten samples beyond it."
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 5, want: 0.95, got: 0.5},
		{n: 19, want: 0.95, got: 0.5},
		{n: 40, want: 0.95, got: 0.75},
		{n: 100, want: 0.95, got: 0.9},
		{n: 199, want: 0.95, got: 0.9},
		{n: 200, want: 0.95, got: 0.95},
		{n: 5000, want: 0.95, got: 0.95}, // never above what was asked for
		{n: 999, want: 0.999, got: 0.95},
		{n: 1000, want: 0.999, got: 0.99},
		{n: 10000, want: 0.999, got: 0.999},
	}
	for _, c := range cases {
		if got := supportedTail(c.n, c.want); got != c.got {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	if got := tail(v, 0.95); math.Abs(got-89.1) > 1e-9 {
		t.Errorf("tail of 0..99 = %v, want the 0.9-quantile 89.1", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadUsesPythonsQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 100, EndNS: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{StartNS: 120, EndNS: 150}}, 70},
		{"disjoint children", []span{{StartNS: 100, EndNS: 110}, {StartNS: 190, EndNS: 200}}, 80},
		{"overlapping children count once", []span{{StartNS: 120, EndNS: 160}, {StartNS: 140, EndNS: 180}}, 40},
		{"nested child", []span{{StartNS: 120, EndNS: 180}, {StartNS: 130, EndNS: 140}}, 40},
		{"child clipped to the parent", []span{{StartNS: 50, EndNS: 120}, {StartNS: 190, EndNS: 400}}, 70},
		{"child outside", []span{{StartNS: 300, EndNS: 400}}, 100},
	}
	for _, c := range cases {
		if got := selfNS(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeSharesAndMedians(t *testing.T) {
	spans := []span{
		{Req: 0, Name: rootSpan, StartNS: 0, EndNS: 10e6},
		{Req: 0, Name: "ecrpq.atomrel", StartNS: 0, EndNS: 2e6, Mallocs: 10},
		{Req: 0, Name: "ecrpq.atomrel", StartNS: 2e6, EndNS: 4e6, Mallocs: 30},
		{Req: 1, Name: rootSpan, StartNS: 20e6, EndNS: 30e6},
		{Req: 1, Name: "ecrpq.atomrel", StartNS: 20e6, EndNS: 22e6, Mallocs: 20},
	}
	st := summarize(spans, rootSpan)["ecrpq.atomrel"]
	if st.calls != 3 || st.allocs != 20 || math.Abs(st.share-0.3) > 1e-12 || st.medianMS != 3 {
		t.Errorf("atomrel: %+v, want 3 calls, 20 allocs per call, share 0.3, median of {4,2} ms = 3", st)
	}
}

// The open-loop schedule does not slip when a request is slow: arrivals stay
// due at start + i*interval, a late release is recorded as lateness, and the
// due time (not the release time) is what latencies are measured from.
func TestPacerLatenessAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	p := &pacer{start: start, interval: 100 * time.Millisecond,
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d + 2*time.Millisecond) }} // timers fire 2 ms late
	due0 := p.next()
	if !due0.Equal(start) || p.lateMS[0] != 0 {
		t.Fatalf("arrival 0: due %v late %v, want due at start, on time", due0, p.lateMS[0])
	}
	due1 := p.next() // sleeps 100 ms, wakes 2 ms late
	if !due1.Equal(start.Add(100*time.Millisecond)) || p.lateMS[1] != 2 {
		t.Fatalf("arrival 1: due %v late %v ms, want start+100ms, 2 ms late", due1, p.lateMS[1])
	}
	now = now.Add(250 * time.Millisecond) // the system stalls: arrivals 2 and 3 are overdue
	due2, due3 := p.next(), p.next()
	if !due2.Equal(start.Add(200*time.Millisecond)) || !due3.Equal(start.Add(300*time.Millisecond)) {
		t.Fatalf("the schedule slipped: arrivals due %v and %v", due2, due3)
	}
	if p.lateMS[2] != 152 || p.lateMS[3] != 52 {
		t.Fatalf("lateness %v and %v ms, want 152 and 52", p.lateMS[2], p.lateMS[3])
	}
	due4 := p.next() // back on schedule
	if !due4.Equal(start.Add(400*time.Millisecond)) || p.lateMS[4] != 2 {
		t.Fatalf("arrival 4: due %v late %v ms, want start+400ms, 2 ms late", due4, p.lateMS[4])
	}
}

func TestScanReplyAgreesWithEncodingJSON(t *testing.T) {
	bodies := []string{
		`{
  "fragment": "CRPQ",
  "count": 3,
  "answers": [
    [
      "n1",
      "n2"
    ],
    [
      "n1",
      "u3_4"
    ],
    [
      "n7",
      "n7"
    ]
  ],
  "costs": [
    1,
    1,
    4
  ],
  "cursor": "00ff00ff00ff00ff00ff00ff00ff00ff",
  "rows_streamed": 3,
  "elapsed_ms": 0.412
}
`,
		`{"fragment":"CXRPQ (simple)","count":1,"bool":true,"elapsed_ms":12.5}`,
		`{"fragment":"CRPQ","count":0,"bool":false,"truncated":true,"shed":true,"elapsed_ms":100.001}`,
		`{"fragment":"CRPQ","count":2,"answers":[["a"],["b"]],"costs":[3,2],"elapsed_ms":1}`,
		`{"fragment":"CRPQ","count":0,"elapsed_ms":0.003}`,
	}
	for _, b := range bodies {
		var fast, slow reply
		if err := scanReply([]byte(b), &fast); err != nil {
			t.Fatalf("scanReply: %v\n%s", err, b)
		}
		if err := decodeReply([]byte(b), &slow); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("scanReply %+v\ndecodeReply %+v\n%s", fast, slow, b)
		}
	}
	var r reply
	if err := scanReply([]byte(`{"count":1,"answers":[["a\"b"]]}`), &r); err == nil {
		t.Error("an escaped string must be handed to the fallback decoder")
	}
}

// Row order must not matter, a duplicated row must.
func TestDigestIsOrderIndependentAndSeesDuplicates(t *testing.T) {
	row := func(fields ...string) uint64 {
		h := newRowHasher()
		for _, f := range fields {
			h.field([]byte(f))
		}
		return h.sum()
	}
	var a, b, dup digest
	a.addRow(row("n1", "n2"))
	a.addRow(row("n3", "n4"))
	b.addRow(row("n3", "n4"))
	b.addRow(row("n1", "n2"))
	if a != b {
		t.Error("digest depends on row order")
	}
	dup.addRow(row("n1", "n2"))
	dup.addRow(row("n1", "n2"))
	if dup == a || row("n1", "n2") == row("n1n", "2") || row("n1", "n2") == row("n2", "n1") {
		t.Error("digest does not separate different answers")
	}
}

func TestGoldenFilesCoverTheDefaultSeed(t *testing.T) {
	for _, name := range workloadNames {
		g, err := loadGolden(benchDirFromHere, name, defaultSeed)
		if err != nil || g == nil || len(g.Pins) == 0 {
			t.Errorf("%s: golden for seed %d missing or empty (%v); run cxrpq-bench -update-golden", name, defaultSeed, err)
		}
	}
}

// Host time: a quarter of the busy time stolen and kernels that took a fifth
// longer than their references (by their medians, so one disturbed round
// does not count) shrink a wall-clock duration to 0.75/1.2 of itself and a
// CPU time to 1/1.2; an interval without a round is taken at the reference
// speed.
func TestHostShareArithmetic(t *testing.T) {
	h := &hostMeter{}
	for round := 0; round < 5; round++ {
		for k := range calibKernels {
			ms := 1.2 * calibKernels[k].refMS
			if round == 3 {
				ms *= 10 // a round hit by something else
			}
			h.kernMS[k] = append(h.kernMS[k], ms)
		}
		h.lateMS = append(h.lateMS, float64(round))
	}
	a := hostMark{steal: 100, busy: 1000, rounds: 0}
	b := hostMark{steal: 150, busy: 1150, rounds: 5}
	s := h.between(a, b)
	if math.Abs(s.steal-0.25) > 1e-12 || math.Abs(s.slowdown-1.2) > 1e-12 || len(s.lateMS) != 5 {
		t.Fatalf("steal %v slowdown %v lateness %v, want 0.25, 1.2 and five rounds", s.steal, s.slowdown, s.lateMS)
	}
	if math.Abs(s.wall()-0.75/1.2) > 1e-12 || math.Abs(s.cpu()-1/1.2) > 1e-12 {
		t.Fatalf("wall factor %v, cpu factor %v, want 0.625 and 0.8333", s.wall(), s.cpu())
	}
	if idle := h.between(b, b); idle.steal != 0 || idle.slowdown != 1 || idle.wall() != 1 {
		t.Fatalf("an empty interval must leave times alone: %+v", idle)
	}
}
