package codegen

import "sysml/internal/hop"

// SetSearchHook installs f as the hook OptimizeTraced calls with every DAG it
// is about to search, and returns the function that removes it.
func SetSearchHook(f func(d *hop.DAG, cfg *Config)) (restore func()) {
	searchHook = f
	return func() { searchHook = nil }
}

// MergePartitions is what Optimize searches with EnablePartition off.
var MergePartitions = mergePartitions
