package bench

import (
	"bytes"
	"testing"
)

// TestExperimentRegistrySmoke runs every registered experiment end to end
// and sanity-checks the produced tables: every row has the declared column
// count and nothing is empty. It checks shape, not numbers, so it runs
// under Quick; the figure tests beside it pin the paper-scale values.
func TestExperimentRegistrySmoke(t *testing.T) {
	old := Quick
	Quick = true
	defer func() { Quick = old }()
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			tab := e.Run()
			if tab.Name != e.Name {
				t.Errorf("table name %q != experiment %q", tab.Name, e.Name)
			}
			if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %d cols %d rows", len(tab.Columns), len(tab.Rows))
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tab.Columns))
				}
				for j, cell := range row {
					if cell == "" {
						t.Errorf("empty cell (%d,%d)", i, j)
					}
				}
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if buf.Len() == 0 {
				t.Error("Fprint produced nothing")
			}
		})
	}
}
