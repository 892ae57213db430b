package separations

import (
	"fmt"

	"cxrpq/internal/graph"
)

// DBSummary is a string summary of a database.
func DBSummary(d *graph.DB) string {
	return fmt.Sprintf("|V|=%d |E|=%d", d.NumNodes(), d.NumEdges())
}
