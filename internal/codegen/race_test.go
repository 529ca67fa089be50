//go:build race

package codegen_test

// dominanceSeeds is the number of generated DAGs TestGenDominatesTheHeuristics
// checks: fewer under the race detector, which runs them about 20× slower.
const dominanceSeeds = 200
