package codegen

import (
	"testing"

	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/rewrite"
)

// chainWithTwoCSEs builds a partition with stacked materialization points:
//
//	X,Y -> m (2 consumers, both under u) -> u (2 consumers) -> w (2 consumers) -> roots
//
// so that u is a barrier: everything below it is reachable through it alone,
// and a cut set at u splits the points at m from the points at w.
func chainWithTwoCSEs() *hop.DAG {
	d := hop.NewDAG()
	x := d.Read("X", 10000, 40, -1)
	y := d.Read("Y", 10000, 40, -1)
	m := d.Binary(matrix.BinMul, x, y)
	u := d.Binary(matrix.BinMul, d.Unary(matrix.UnAbs, d.Binary(matrix.BinAdd, m, d.Lit(1))), d.Unary(matrix.UnSqrt, m))
	w := d.Unary(matrix.UnExp, u)
	d.Output("a", d.Sum(w))
	d.Output("b", d.RowSums(w))
	d.Output("c", d.Sum(d.Binary(matrix.BinMul, u, u)))
	return d
}

func exploreParts(t *testing.T, d *hop.DAG) (*Memo, []*Partition, Config) {
	t.Helper()
	cfg := DefaultConfig()
	dd, _ := rewrite.Apply(d)
	memo := Explore(dd.Roots(), &cfg)
	parts := BuildPartitions(memo, dd.Roots())
	return memo, parts, cfg
}

func TestPartitionMetadata(t *testing.T) {
	memo, parts, _ := exploreParts(t, chainWithTwoCSEs())
	if len(parts) != 1 {
		t.Fatalf("expected one connected partition, got %d", len(parts))
	}
	p := parts[0]
	if len(p.Roots) < 2 {
		t.Fatalf("expected multiple roots (sum, rowSums, sum), got %v", p.Roots)
	}
	if len(p.MatPoints) < 2 {
		t.Fatalf("expected >= 2 materialization points (m and u), got %v", p.MatPoints)
	}
	// Every interesting point references a node of the partition.
	for _, pt := range p.Points {
		if !p.Nodes[pt.From] || !p.Nodes[pt.To] {
			t.Fatalf("interesting point %v escapes the partition", pt)
		}
		if memo.Hop(pt.To) == nil {
			t.Fatalf("point target %d has no hop", pt.To)
		}
	}
	// Partition inputs are outside the node set.
	for _, in := range p.Inputs {
		if p.Nodes[in] {
			t.Fatalf("input %d is inside the partition", in)
		}
	}
}

func TestCutSets(t *testing.T) {
	memo, parts, _ := exploreParts(t, chainWithTwoCSEs())
	p := parts[0]
	if len(p.Points) < 3 {
		t.Fatalf("need >= 3 points for cut sets, got %d", len(p.Points))
	}
	cuts := FindCutSets(memo, p)
	if len(cuts) == 0 {
		t.Fatal("u is a barrier of the chain; no cut set found")
	}
	for _, cs := range cuts {
		if len(cs.Points) == 0 || len(cs.S1) == 0 || len(cs.S2) == 0 {
			t.Fatalf("invalid cut set with an empty side: %+v", cs)
		}
		// Points, S1 and S2 are disjoint and cover all points.
		seen := map[int]bool{}
		for _, i := range append(append(append([]int{}, cs.Points...), cs.S1...), cs.S2...) {
			if seen[i] {
				t.Fatalf("cut set overlaps a subproblem: %+v", cs)
			}
			seen[i] = true
		}
		if len(seen) != len(p.Points) {
			t.Fatalf("cut set does not cover all points: %+v", cs)
		}
		// Every point into a node the cut set materializes from above is
		// in it: a barrier with a fusing consumer left is none.
		for _, i := range cs.Points {
			for _, j := range cs.S1 {
				if p.Points[j].To == p.Points[i].To {
					t.Fatalf("point %v left above the barrier at %d: %+v", p.Points[j], p.Points[i].To, cs)
				}
			}
		}
	}
	// Cut sets are sorted by ascending score (Eq. 5). That the cost of a
	// plan splits over S1 and S2 is checked plan by plan in
	// TestSearchReturnsTheOptimum.
	for i := 1; i < len(cuts); i++ {
		if cuts[i-1].Score > cuts[i].Score {
			t.Fatal("cut sets not sorted by score")
		}
	}
}

func TestCutScoreFormula(t *testing.T) {
	// Eq. (5): (2^|cs|-1)/2^|cs| * 2^|M'| + 1/2^|cs| * (2^|S1| + 2^|S2|).
	got := cutScore(1, 2, 3, 6)
	want := 0.5*64 + 0.5*(4+8)
	if got != want {
		t.Fatalf("cutScore(1,2,3,6) = %v, want %v", got, want)
	}
	// Larger cut sets cost more of the full space.
	if cutScore(2, 2, 2, 6) <= cutScore(1, 2, 3, 6)-32 {
		t.Fatal("score ordering implausible")
	}
}
