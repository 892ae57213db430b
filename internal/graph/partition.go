package graph

// Partition is an empty type: the sharded reachability kernel it routed for
// is gone.
//
// Deprecated: kept, with DB.Partition, for cmd/cxrpq-bench/layers.go, its
// only caller, which a performance change may not edit (it passes the result
// to engine.ReachBatch, which ignores it). The next benchmark change deletes
// both.
type Partition struct{}

// Partition returns nil.
//
// Deprecated: see the type.
func (d *DB) Partition(int) *Partition { return nil }
