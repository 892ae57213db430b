package exp

import (
	"os"
	"strings"
	"testing"
)

// Every experiment must complete without error at scale 1, produce rows,
// and reproduce its pinned table: every column but those whose header names
// a time, as testdata/scale1.golden holds them (pinned). A table that reads
// otherwise is printed whole, for the golden to take once the change is
// meant.
func TestAllExperimentsScale1(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	golden, err := os.ReadFile("testdata/scale1.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.SplitAfter(string(golden), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(block, "== "), ":"); ok {
			want[id] = block
		}
	}
	tables := All(1)
	if len(want) != len(tables) {
		t.Errorf("the golden pins %d tables, the suite has %d", len(want), len(tables))
	}
	for _, tbl := range tables {
		if tbl.Err != nil {
			t.Errorf("%s: %v", tbl.ID, tbl.Err)
			continue
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		out := tbl.Render()
		if !strings.Contains(out, tbl.ID) {
			t.Errorf("%s: render missing ID", tbl.ID)
		}
		if got := pinned(tbl); got != want[tbl.ID] {
			t.Errorf("%s reads\n%s\nwhere testdata/scale1.golden pins\n%s", tbl.ID, got, want[tbl.ID])
		}
	}
}

// pinned renders t without the columns whose header names a time, with no
// trailing blanks, and ends it with an empty line.
func pinned(t *Table) string {
	var keep []int
	for i, h := range t.Header {
		if !strings.Contains(h, "time") {
			keep = append(keep, i)
		}
	}
	pick := func(cells []string) (out []string) {
		for _, i := range keep {
			out = append(out, cells[i])
		}
		return out
	}
	c := &Table{ID: t.ID, Title: t.Title, Header: pick(t.Header)}
	for _, row := range t.Rows {
		c.Rows = append(c.Rows, pick(row))
	}
	lines := strings.Split(strings.TrimSuffix(c.Render(), "\n"), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	return strings.Join(lines, "\n") + "\n\n"
}

// E3, E4, E9 are reduction-vs-oracle checks: every row must agree.
func TestReductionAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, tbl := range []*Table{E03Theorem1(1), E04Theorem3(1), E09HittingSet(1)} {
		if tbl.Err != nil {
			t.Fatalf("%s: %v", tbl.ID, tbl.Err)
		}
		for _, row := range tbl.Rows {
			if row[len(row)-2] != "true" {
				t.Errorf("%s: disagreement in row %v", tbl.ID, row)
			}
		}
	}
}

// E11 must report VERIFIED for every Figure 5 relationship.
func TestFigure5AllVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl := E11Figure5(1)
	if tbl.Err != nil {
		t.Fatal(tbl.Err)
	}
	for _, row := range tbl.Rows {
		if row[1] != "VERIFIED" {
			t.Errorf("Figure 5 relationship not verified: %v", row)
		}
	}
}

// E13's match column must equal its expected column.
func TestE13Expectations(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl := E13Fig7(1)
	if tbl.Err != nil {
		t.Fatal(tbl.Err)
	}
	for _, row := range tbl.Rows {
		if row[2] != row[3] {
			t.Errorf("E13 mismatch: %v", row)
		}
	}
}
