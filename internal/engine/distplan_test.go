package engine

import (
	"reflect"
	"testing"

	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// TestDistributedGhostPlansMatchOracle checks, for every rank of several
// cluster shapes, that the distributed per-rank ghost-plan builder produces
// a plan bit-identical to the centralized global pass.
func TestDistributedGhostPlansMatchOracle(t *testing.T) {
	for _, tc := range []struct{ boxes, ranks int }{
		{16, 2}, {64, 4}, {256, 7}, {1024, 32},
	} {
		a := benchTileAssignment(tc.boxes, tc.ranks, 0)
		central := centralGhostPlans(a, tc.ranks, 2, "e1-")
		for me := 0; me < tc.ranks; me++ {
			var sc commScratch
			got := buildGhostPlan(newAsnView(a, me), me, 2, "e1-", &sc)
			if !ghostPlansEqual(got, central[me]) {
				t.Fatalf("boxes=%d ranks=%d: rank %d distributed ghost plan differs from oracle",
					tc.boxes, tc.ranks, me)
			}
		}
	}
}

// TestDistributedMigPlansMatchOracle checks every rank's distributed
// migration plan against the centralized oracle for a seam shift (owners
// move, tiling unchanged) and for a tiling change (different box lists).
func TestDistributedMigPlansMatchOracle(t *testing.T) {
	const n, ranks = 256, 8
	old := benchTileAssignment(n, ranks, 0)
	shifted := benchTileAssignment(n, ranks, 0)
	for i := range shifted.Owners {
		// Rotate every fourth tile's owner: sends, recvs and retained
		// regions all occur on every rank.
		if i%4 == 0 {
			shifted.Owners[i] = (shifted.Owners[i] + 1) % ranks
		}
	}
	coarse := benchTileAssignment(n/4, ranks, 0) // different tiling entirely
	for _, next := range []*partition.Assignment{shifted, coarse} {
		central := centralMigPlans(old, next, ranks)
		for me := 0; me < ranks; me++ {
			var sc commScratch
			got := buildMigPlan(newAsnView(old, me), newAsnView(next, me), me, &sc)
			if !reflect.DeepEqual(got, central[me]) {
				t.Fatalf("rank %d distributed migration plan differs from oracle", me)
			}
		}
	}
}

// TestRepartitionPlanCostOracle exercises the exported measurement: the
// sampled ranks must match the oracle and the delta wire form must beat the
// full table when only owners moved.
func TestRepartitionPlanCostOracle(t *testing.T) {
	const n, ranks = 256, 16
	old := benchTileAssignment(n, ranks, 0)
	next := benchTileAssignment(n, ranks, 0)
	for i := 0; i < len(next.Owners); i += 8 {
		next.Owners[i] = (next.Owners[i] + 1) % ranks
	}
	rep, err := RepartitionPlanCost(old, next, ranks, []int{0, ranks / 2, ranks - 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OracleOK {
		t.Fatal("distributed plans diverged from the centralized oracle")
	}
	if rep.DeltaWireBytes >= rep.FullWireBytes {
		t.Fatalf("delta wire form (%d B) not smaller than full table (%d B)",
			rep.DeltaWireBytes, rep.FullWireBytes)
	}
	if _, err := RepartitionPlanCost(old, next, ranks, nil, 1); err == nil {
		t.Fatal("expected error for empty sample set")
	}
	if _, err := RepartitionPlanCost(old, next, ranks, []int{ranks}, 1); err == nil {
		t.Fatal("expected error for out-of-range sample rank")
	}
}

// TestDeltaBroadcastRoundTrip checks that applying an owner-delta wire form
// reproduces exactly the view a full rebuild would give, for every rank,
// including the incremental mine list and owner table.
func TestDeltaBroadcastRoundTrip(t *testing.T) {
	const n, ranks = 64, 4
	old := benchTileAssignment(n, ranks, 0)
	next := benchTileAssignment(n, ranks, 0)
	for i := 0; i < len(next.Owners); i += 3 {
		next.Owners[i] = (next.Owners[i] + 2) % ranks
	}
	for me := 0; me < ranks; me++ {
		prev := newAsnView(old, me)
		wire := encodeAssignment(prev, next)
		if !wire.Delta {
			t.Fatal("expected the delta wire form for an owner-only change")
		}
		got, err := applyDelta(prev, &wire, me)
		if err != nil {
			t.Fatalf("rank %d: %v", me, err)
		}
		want := newAsnView(next, me)
		if !reflect.DeepEqual(got.Owners, want.Owners) {
			t.Fatalf("rank %d: delta owners diverged", me)
		}
		if !reflect.DeepEqual(got.mine, want.mine) {
			t.Fatalf("rank %d: delta mine list %v, want %v", me, got.mine, want.mine)
		}
		if len(got.Boxes) != len(prev.Boxes) || &got.Boxes[0] != &prev.Boxes[0] {
			t.Fatalf("rank %d: delta view must alias the standing box list", me)
		}
	}
	// A tiling change must fall back to the full table.
	coarse := benchTileAssignment(n/4, ranks, 0)
	if wire := encodeAssignment(newAsnView(old, 0), coarse); wire.Delta {
		t.Fatal("delta wire form used across a tiling change")
	}
}

// TestMergeMine covers the incremental own-box list maintenance.
func TestMergeMine(t *testing.T) {
	for _, tc := range []struct {
		mine, add, del, want []int
	}{
		{[]int{1, 3, 5}, nil, nil, []int{1, 3, 5}},
		{[]int{1, 3, 5}, []int{0, 4, 9}, nil, []int{0, 1, 3, 4, 5, 9}},
		{[]int{1, 3, 5}, nil, []int{3}, []int{1, 5}},
		{[]int{1, 3, 5}, []int{2}, []int{1, 5}, []int{2, 3}},
		{nil, []int{7}, nil, []int{7}},
		{[]int{2}, nil, []int{2}, []int{}},
	} {
		got := mergeMine(tc.mine, tc.add, tc.del)
		if len(got) != len(tc.want) {
			t.Fatalf("mergeMine(%v,%v,%v) = %v, want %v", tc.mine, tc.add, tc.del, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("mergeMine(%v,%v,%v) = %v, want %v", tc.mine, tc.add, tc.del, got, tc.want)
			}
		}
	}
}

// runCentralAndDistributed runs the same config with the distributed plan
// builders and with the centralized oracle over fresh endpoint groups and
// bit-compares the final global state — the end-to-end form of the plan
// differential, covering mid-run repartitions and migrations.
func runCentralAndDistributed(t *testing.T, cfg SPMDConfig, mk func() []transport.Endpoint) {
	t.Helper()
	cfg.CentralPlans = false
	dist := runSPMD(t, mk(), cfg)
	cfg.CentralPlans = true
	cent := runSPMD(t, mk(), cfg)
	var reparts int64
	for _, r := range dist {
		reparts += int64(r.Repartitions)
	}
	if reparts == 0 {
		t.Fatal("no repartition happened; the migration plans went unexercised")
	}
	comparePatchesBitExact(t, cfg.Kernel.NumFields(),
		gatherPatches(t, dist), gatherPatches(t, cent))
}

// TestCentralPlansBitExact3D runs the 3D Euler solver across three ranks
// with a mid-run capacity shift and requires the distributed plan builders
// to reproduce the centralized path exactly, cell for cell.
func TestCentralPlansBitExact3D(t *testing.T) {
	cfg := euler3DConfig(10)
	cfg.CapsAt = capsSwitcher(3)
	runCentralAndDistributed(t, cfg, func() []transport.Endpoint {
		eps, err := transport.NewGroup(3)
		if err != nil {
			t.Fatal(err)
		}
		return eps
	})
}

// TestCentralPlansBitExact3DOverTCP repeats the differential over real
// sockets, so both plan paths also agree about frame region order on a
// buffered wire.
func TestCentralPlansBitExact3DOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP differential skipped in -short")
	}
	cfg := euler3DConfig(6)
	cfg.RepartEvery = 3
	cfg.CapsAt = capsSwitcher(3)
	runCentralAndDistributed(t, cfg, func() []transport.Endpoint {
		eps, err := transport.NewTCPGroup(3, "127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		return eps
	})
}
