package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
)

// runOut runs the command on the given graph and query texts, explaining one
// match when explain is set, and returns what it prints.
func runOut(t *testing.T, graphText, queryText, algo string, k int, explain bool) string {
	t.Helper()
	dir := t.TempDir()
	gp, qp := filepath.Join(dir, "db.txt"), filepath.Join(dir, "q.txt")
	if err := os.WriteFile(gp, []byte(graphText), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qp, []byte(queryText), 0o600); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(gp, qp, algo, k, explain)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, out)
	}
	return string(out)
}

// TestAlgoAny: -algo any prints the answers of a bounded evaluation with
// image bound -k, and the image-cap note exactly when the graph has a path
// of k+1 edges, so that a longer image could label one.
func TestAlgoAny(t *testing.T) {
	const (
		chain = "s a n1\nn1 a n2\nn2 b n3\nn3 a n4\nn4 a t\n" // 5 edges
		query = "ans(x, y)\nx y : $v{a+}b$v\n"
	)
	db, err := graph.Read(strings.NewReader(chain))
	if err != nil {
		t.Fatal(err)
	}
	q := cxrpq.MustParse(query)
	for k := 0; k <= 6; k++ {
		out := runOut(t, chain, query, "any", k, false)
		if noted := strings.Contains(out, "image cap reached"); noted != db.HasPathOfLen(k+1) || noted != (k < 5) {
			t.Errorf("k=%d: image-cap note printed %v, the graph's longest path has 5 edges:\n%s", k, noted, out)
		}
		resp := cxrpq.Do(q, db, cxrpq.Request{Op: "eval", Semantics: "bounded", K: k})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		var want []string
		for _, tu := range resp.Tuples.Sorted() {
			want = append(want, db.Name(tu[0])+", "+db.Name(tu[1]))
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasSuffix(l, "answer tuple(s):") })
		if i < 0 {
			t.Fatalf("k=%d: no answer list in\n%s", k, out)
		}
		if got := lines[i+1:]; !slices.Equal(got, want) {
			t.Errorf("k=%d: -algo any printed %q, a bounded cxrpq.Do answers %q", k, got, want)
		}
		if k >= 2 && len(want) != 2 {
			t.Errorf("k=%d: %d answers, want aba and aabaa's", k, len(want))
		}
	}
}

// TestExplainPrintsSorted: -explain prints a witness's node variables and
// string variables sorted by name, so that every run prints the same lines.
func TestExplainPrintsSorted(t *testing.T) {
	const (
		chain = "n1 a n2\nn2 b n3\nn3 a n4\nn4 b n5\n"
		query = "ans(w, z)\nw x : $u{a}\nx y : $t{b}\ny z : $u\nz v : $t\n"
	)
	var first string
	for run := 0; run < 8; run++ {
		out := runOut(t, chain, query, "bounded", 1, true)
		var nodes, images []string
		for _, l := range strings.Split(out, "\n") {
			if name, ok := strings.CutPrefix(l, "  node "); ok {
				nodes = append(nodes, name)
			}
			if name, ok := strings.CutPrefix(l, "  $"); ok {
				images = append(images, name)
			}
		}
		if len(nodes) != 5 || len(images) != 2 || !slices.IsSorted(nodes) || !slices.IsSorted(images) {
			t.Fatalf("run %d: want five node and two image lines, each sorted by name:\n%s", run, out)
		}
		if run == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", run, out, first)
		}
	}
}
