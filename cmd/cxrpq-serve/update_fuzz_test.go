package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cxrpq/internal/graph"
)

// FuzzUpdateRequest feeds /update bodies of at most 4 KiB through the handler
// against a fresh in-memory database per input, so a finding replays alone.
// Whatever the body, the handler must not panic and must answer 200 exactly
// when a fresh graph.ApplyDelta of the batch the body decodes to succeeds, and
// a 4xx otherwise. A 200 must report the revision and edge count that
// ApplyDelta gives; a 4xx must leave the revision — live and published — as it
// was. The seeds are one body per validation branch of the handler, then one
// per kind of accepted batch.
func FuzzUpdateRequest(f *testing.F) {
	for _, seed := range []string{
		// decode
		`{`,
		`[1,2]`,
		`{"db":7}`,
		`{"db":"g1","edges":"u a v"} trailing`,
		// resolve
		`{"db":"nope","edges":"u a v"}`,
		`{"edges":"u a v"}`,
		// parse
		`{"db":"g1","edges":"u a"}`,
		`{"db":"g1","edges":"u ab v"}`,
		`{"db":"g1","remove":"u"}`,
		// apply
		`{"db":"g1","remove":"u a nope"}`,
		`{"db":"g1","remove":"u b v"}`,
		`{"db":"g1","remove":"u a v\nu a v\nu a v"}`,
		// accepted: empty, insert, new labels and nodes, removal, mixed, cancelled
		`{"db":"g1"}`,
		`{"db":"g1","edges":"u a v"}`,
		`{"db":"g1","edges":"x d y\ny d x\n# comment\n\nx e x"}`,
		`{"db":"g1","remove":"u a v"}`,
		`{"db":"g1","edges":"u b u","remove":"v b w"}`,
		`{"db":"g1","edges":"u a v","remove":"u a v"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 4<<10 {
			t.Skip()
		}
		srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
		e := srv.addDB("g1", graph.MustParse(fuzzGraph))
		rev := e.state.Load().rev
		ref, accepted := graph.MustParse(fuzzGraph), false
		var req updateRequest
		if json.NewDecoder(strings.NewReader(body)).Decode(&req) == nil && req.DB == "g1" {
			add, err := graph.ParseDeltaEdges(req.Edges)
			del, err2 := graph.ParseDeltaEdges(req.Remove)
			if err == nil && err2 == nil {
				_, err = ref.ApplyDelta(graph.Delta{Add: add, Del: del})
				accepted = err == nil
			}
		}

		rec := httptest.NewRecorder()
		srv.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			var out updateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with a body that is not an update response: %v: %s", err, rec.Body)
			}
			if !accepted {
				t.Fatalf("200 for a batch a fresh ApplyDelta rejects: %s", rec.Body)
			}
			if out.Revision != ref.Revision() || out.Edges != ref.NumEdges() {
				t.Fatalf("revision %d with %d edges, a fresh ApplyDelta gives %d with %d", out.Revision, out.Edges, ref.Revision(), ref.NumEdges())
			}
		case rec.Code >= 400 && rec.Code < 500:
			if accepted {
				t.Fatalf("status %d for a batch a fresh ApplyDelta accepts: %s", rec.Code, rec.Body)
			}
			if now, live := e.state.Load().rev, e.live.Load().Revision(); now != rev || live != rev {
				t.Fatalf("status %d moved the revision from %d to %d (live %d)", rec.Code, rev, now, live)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
