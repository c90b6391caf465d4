package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// shortOpts is the `make scale-short` trial: a 64-node Clos with a recovery
// storm, small enough to run under the race detector.
func shortOpts(shards int) ScaleOptions {
	return ScaleOptions{
		Nodes:     64,
		Shards:    shards,
		Pattern:   PatternAllToAll,
		TickEvery: 8 * sim.Microsecond,
		Duration:  sim.Millisecond,
		Storm:     true,
	}
}

// TestScaleShort drives the 64-node storm trial on the sharded engine and
// checks the full contract: traffic flows, every accepted send is delivered
// exactly once despite eight mid-run processor hangs, and the windowed
// schedule is bit-for-bit invariant between one and four executors.
func TestScaleShort(t *testing.T) {
	one, err := RunScale(shortOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunScale(shortOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ScaleResult{one, four} {
		if r.Sent == 0 || r.Delivered != r.Sent {
			t.Fatalf("shards=%d: delivered %d of %d accepted sends", r.Shards, r.Delivered, r.Sent)
		}
		if r.Recovered != 8 {
			t.Fatalf("shards=%d: %d of 8 hung nodes completed recovery", r.Shards, r.Recovered)
		}
	}
	pt := ScalePoint{Serial: one, Sharded: four}
	if !pt.Matches() {
		t.Fatalf("schedules diverge between 1 and 4 executors:\n  1: %+v\n  4: %+v", one, four)
	}
	if pt.Speedup() <= 0 {
		t.Fatalf("bad speedup %v", pt.Speedup())
	}
}

// TestScaleIncast exercises the congestion pattern end to end: every node
// fires at node 0; the sink's domain serializes but nothing is lost.
func TestScaleIncast(t *testing.T) {
	opts := ScaleOptions{
		Nodes:     32,
		Shards:    2,
		Pattern:   PatternIncast,
		TickEvery: 8 * sim.Microsecond,
		Duration:  sim.Millisecond,
		Drain:     200 * sim.Millisecond,
	}
	r, err := RunScale(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent == 0 || r.Delivered != r.Sent {
		t.Fatalf("delivered %d of %d accepted sends", r.Delivered, r.Sent)
	}
}

// TestScaleMatrixSmall runs the multi-core matrix on a small cluster: one
// cell per shard count plus a threshold cell, every one cross-checked
// against the first on Sent, Delivered, Events and Now.
func TestScaleMatrixSmall(t *testing.T) {
	pts, err := ScaleMatrix(16, []int{1, 2}, []int{1}, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, p := range pts {
		labels = append(labels, p.Label)
		if p.Result.Events != pts[0].Result.Events {
			t.Fatalf("cell %s: %d events, reference %d", p.Label, p.Result.Events, pts[0].Result.Events)
		}
	}
	if got := strings.Join(labels, ","); got != "s1,s2,thr1" {
		t.Fatalf("matrix cells = %s, want s1,s2,thr1", got)
	}
}

func TestClosShape(t *testing.T) {
	for _, tc := range []struct {
		n, spines, leaves, perLeaf int
	}{
		{16, 2, 2, 8}, {64, 4, 8, 8}, {128, 4, 16, 8}, {256, 4, 32, 8}, {36, 4, 9, 4},
	} {
		spines, leaves, perLeaf, err := closShape(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if spines != tc.spines || leaves != tc.leaves || perLeaf != tc.perLeaf {
			t.Fatalf("closShape(%d) = %d,%d,%d want %d,%d,%d",
				tc.n, spines, leaves, perLeaf, tc.spines, tc.leaves, tc.perLeaf)
		}
	}
}
