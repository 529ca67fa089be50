//go:build !race

package codegen_test

// dominanceSeeds is the number of generated DAGs TestGenDominatesTheHeuristics
// checks (race_test.go has the count under the race detector).
const dominanceSeeds = 1000
