package main

// Declarative workload specs (bench/spec/<workload>.json), gMark-style: a
// typed graph schema (node types with shares, predicates with a source type,
// a target type and degree distributions) plus query templates. A template is
// either a shape (chain/star/cycle) whose atoms are filled by a walk over the
// schema, so consecutive atoms agree on node types, or a literal text whose
// %1..%9 slots take distinct labels of its database. Everything random is
// drawn from -seed by gen.go; the spec itself holds no measured value except
// the calibrated ops_per_s.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workloadNames is the fixed run order of -selfcheck, -reps and -smoke.
var workloadNames = []string{"crpq_cold", "stream_hot", "strvar", "update_read"}

type distSpec struct {
	Kind string  `json:"kind"` // const | uniform | zipf
	Min  int     `json:"min"`
	Max  int     `json:"max"`
	S    float64 `json:"s,omitempty"` // zipf exponent (> 1)
}

type typeSpec struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

type predSpec struct {
	Label   string   `json:"label"` // one rune
	From    string   `json:"from"`
	To      string   `json:"to"`
	Out     distSpec `json:"out"`
	In      string   `json:"in"`                // uniform | zipf: how targets are drawn
	Closure bool     `json:"closure,omitempty"` // sparse enough that L+ stays under the row cap
}

type graphSpec struct {
	DB    string `json:"db"`
	Nodes int    `json:"nodes"`
	// Pin, when not zero, generates this graph from Pin instead of from the
	// run's seed. strvar uses it: the cost of an equality product on a
	// 20-node graph moves by a factor of several with the wiring, so there
	// the graph is part of the spec and the seed draws only the requests.
	Pin   int64      `json:"pin,omitempty"`
	Types []typeSpec `json:"types"`
	Preds []predSpec `json:"predicates"`
}

// templateSpec is one query family.
type templateSpec struct {
	Name      string   `json:"name"`
	DB        string   `json:"db"`
	Weight    int      `json:"weight"`
	Shape     string   `json:"shape,omitempty"` // chain | star | cycle
	Atoms     []string `json:"atoms,omitempty"` // atom forms: L, LM, L|M, L+, L?M
	Out       string   `json:"out,omitempty"`   // ends | all | first
	Text      string   `json:"text,omitempty"`  // literal text with %1..%9 label slots
	Semantics string   `json:"semantics,omitempty"`
	K         []int    `json:"k,omitempty"` // bounded: one k is drawn per op

	// Modes weighs eval/bool/check for the template's single-request ops;
	// without it every op is an eval. strvar sets it on its bounded
	// templates only, so that its bool and check requests are one population
	// and not eight.
	Modes map[string]int `json:"modes,omitempty"`

	// Kinds weighs the op kinds drawn for this template: query (one
	// materialised request, the default), first (a first page whose cursor
	// is abandoned), drain (first page, then pages until exhausted) and
	// ranked (ranked first page plus a fixed number of pages).
	Kinds map[string]int `json:"kinds,omitempty"`
}

// streamSpec sizes the paged op kinds (first, drain, ranked).
type streamSpec struct {
	FirstLimit  int `json:"first_limit"`  // rows of a first page
	PageRows    int `json:"page_rows"`    // rows of a continuation page
	RankedPages int `json:"ranked_pages"` // continuation pages of a ranked op before it is abandoned
	RankedRows  int `json:"ranked_rows"`  // rows of a ranked page
}

// updateSpec describes the write side of update_read: one update batch, its
// follow-up check, then ReadsPerUpdate reads of pooled texts, and again.
type updateSpec struct {
	ReadsPerUpdate int    `json:"reads_per_update"`
	Arrivals       int    `json:"arrivals"`      // arrival nodes per insert batch
	DeleteEvery    int    `json:"delete_every"`  // every n-th batch deletes an earlier insert
	DeleteLag      int    `json:"delete_lag"`    // how many batches back the deleted one lies
	WitnessQuery   string `json:"witness_query"` // pooled text the follow-up check runs on

	// The store settings of the server (-wal-sync-every, -checkpoint-bytes)
	// and of the store the traced run replays the batches into.
	WALSyncEvery    int   `json:"wal_sync_every"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

type workloadSpec struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Graphs    []graphSpec    `json:"graphs"`
	Templates []templateSpec `json:"templates"`
	Stream    *streamSpec    `json:"stream,omitempty"`
	Update    *updateSpec    `json:"update,omitempty"` // set: durable store (-data-dir) and updates between the reads

	// ReqClasses names the request classes req_p50_ms and req_p95_ms are
	// taken over; empty means every closed-loop class (read, bool, check,
	// first, page). TTFRClasses names the ones ttfr_p50_ms is taken over: what "the
	// first result" is differs by workload (see bench/README.md).
	ReqClasses  []string `json:"req_classes,omitempty"`
	TTFRClasses []string `json:"ttfr_classes"`

	// OpsPerS sizes the measured phase, which is a fixed list of ops and not
	// a fixed time: a run of -seconds s executes the first OpsPerS*s ops of
	// the seed's list, however long that takes. It is calibrated so that the
	// list takes s seconds of host time (host.go) at the commit that added
	// the benchmark. The same seed therefore sends the same requests on a
	// fast host and on a slow one, before and after a change.
	OpsPerS float64 `json:"ops_per_s"`

	WarmupOps   int `json:"warmup_ops"`             // unmeasured ops before the clock starts
	GoldenOps   int `json:"golden_ops,omitempty"`   // ops pinned in bench/golden for the default seed
	VerifyEvery int `json:"verify_every,omitempty"` // every n-th executed op is re-evaluated in process; unset on update_read, whose reads run at revisions the driver cannot know
}

// rowCap is the hard cap on the rows of one materialised answer. It is
// checked on every answer the server returns and on every answer evaluated
// in process, by count and never by time.
const rowCap = 50000

func loadSpec(benchDir, name string) (*workloadSpec, error) {
	path := filepath.Join(benchDir, "spec", name+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A field no code reads is an error, so a spec cannot carry a setting
	// that looks as if it did something.
	var s workloadSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name != name {
		return nil, fmt.Errorf("%s: name %q does not match the file", path, s.Name)
	}
	if len(s.Graphs) == 0 || len(s.Templates) == 0 || s.OpsPerS <= 0 {
		return nil, fmt.Errorf("%s: needs graphs, templates and ops_per_s", path)
	}
	if s.Update != nil && s.Update.ReadsPerUpdate <= 0 {
		return nil, fmt.Errorf("%s: update needs reads_per_update", path)
	}
	for i := range s.Templates {
		t := &s.Templates[i]
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if s.graph(t.DB) == nil {
			return nil, fmt.Errorf("%s: template %s names unknown db %q", path, t.Name, t.DB)
		}
	}
	if (s.VerifyEvery > 0) == (s.Update != nil) {
		return nil, fmt.Errorf("%s: verify_every is for the workloads without updates, and required there", path)
	}
	for _, classes := range [][]string{s.ReqClasses, s.TTFRClasses} {
		for _, c := range classes {
			if _, ok := classIDs[c]; !ok {
				return nil, fmt.Errorf("%s: unknown request class %q", path, c)
			}
		}
	}
	if len(s.TTFRClasses) == 0 {
		return nil, fmt.Errorf("%s: needs ttfr_classes", path)
	}
	return &s, nil
}

func (s *workloadSpec) graph(db string) *graphSpec {
	for i := range s.Graphs {
		if s.Graphs[i].DB == db {
			return &s.Graphs[i]
		}
	}
	return nil
}
