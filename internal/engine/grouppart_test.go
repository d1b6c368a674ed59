package engine

import (
	"reflect"
	"sync"
	"testing"

	"samrpart/internal/monitor"
	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// hierSPMDConfig is the SPMD test config with the hierarchical partitioner
// in 2-node groups, so even small rank counts exercise several groups (and
// odd counts a ragged last group).
func hierSPMDConfig(iters, ranks int) SPMDConfig {
	cfg := spmdConfig(iters)
	h := partition.NewHierarchical(2)
	h.GroupSize = 2
	cfg.Partitioner = h
	cfg.CapsAt = capsSwitcher(ranks)
	return cfg
}

// TestGroupLocalPartitionMatchesCentralPerRank drives the group-local
// gather directly: every rank slices its own group and the leaders feed
// the root's assembly, which must be bit-identical (DeepEqual, floats
// included) to the centralized Hierarchical.Partition — before and after
// the capacity shift, and at a ragged rank count. The root then shares the
// result, and every rank's decoded view must equal the root's.
func TestGroupLocalPartitionMatchesCentralPerRank(t *testing.T) {
	for _, ranks := range []int{4, 5} {
		cfg := hierSPMDConfig(4, ranks)
		cfg.NoAffinityRemap = true // no standing assignment to relabel against
		h := cfg.Partitioner.(*partition.Hierarchical)
		for _, iter := range []int{0, 8} {
			eps, err := transport.NewGroup(ranks)
			if err != nil {
				t.Fatal(err)
			}
			asns := make([]*partition.Assignment, ranks)
			views := make([]*asnView, ranks)
			errs := make([]error, ranks)
			var wg sync.WaitGroup
			for r := range eps {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					run, err := newSPMDRun(eps[r], cfg)
					if err != nil {
						errs[r] = err
						return
					}
					if asns[r], errs[r] = run.gatherSegments(h, iter); errs[r] != nil {
						return
					}
					views[r], errs[r] = run.shareAssignment(asns[r], iter)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("ranks=%d iter=%d rank %d: %v", ranks, iter, r, err)
				}
			}
			want, err := h.Partition(cfg.tiles(), cfg.CapsAt(iter), partition.CellWork)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(asns[0], want) {
				t.Fatalf("ranks=%d iter=%d: assembled assignment differs from centralized Partition", ranks, iter)
			}
			for r := 1; r < ranks; r++ {
				if asns[r] != nil {
					t.Fatalf("rank %d returned a non-nil assignment; only the root assembles", r)
				}
				if !reflect.DeepEqual(views[r].Assignment, views[0].Assignment) {
					t.Fatalf("ranks=%d iter=%d: rank %d decoded a view that differs from the root's", ranks, iter, r)
				}
			}
		}
	}
}

// runGroupLocalAndCentral runs the same config with group-local stage 2 and
// with the centralized oracle over fresh endpoint groups and bit-compares
// the final global state — the end-to-end differential, covering mid-run
// repartitions, the owner-delta broadcast, and migrations.
func runGroupLocalAndCentral(t *testing.T, cfg SPMDConfig, mk func() []transport.Endpoint) {
	t.Helper()
	cfg.CentralPartition = false
	local := runSPMD(t, mk(), cfg)
	cfg.CentralPartition = true
	cent := runSPMD(t, mk(), cfg)
	var reparts int64
	for _, r := range local {
		reparts += int64(r.Repartitions)
	}
	if reparts == 0 {
		t.Fatal("no repartition happened; group-local stage 2 went unexercised")
	}
	comparePatchesBitExact(t, cfg.Kernel.NumFields(),
		gatherPatches(t, local), gatherPatches(t, cent))
}

// TestCentralPartitionBitExact runs the end-to-end differential over the
// channel transport at an even and a ragged rank count.
func TestCentralPartitionBitExact(t *testing.T) {
	for _, ranks := range []int{4, 5} {
		cfg := hierSPMDConfig(12, ranks)
		runGroupLocalAndCentral(t, cfg, func() []transport.Endpoint {
			eps, err := transport.NewGroup(ranks)
			if err != nil {
				t.Fatal(err)
			}
			return eps
		})
	}
}

// TestCentralPartitionBitExactTCP repeats the differential over real
// sockets, so the segment gather also agrees with a buffered, reordering
// wire underneath.
func TestCentralPartitionBitExactTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP differential skipped in -short")
	}
	cfg := hierSPMDConfig(8, 4)
	runGroupLocalAndCentral(t, cfg, func() []transport.Endpoint {
		eps, err := transport.NewTCPGroup(4, "127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		return eps
	})
}

// TestCentralPartitionBitExactElastic runs the differential through the FT
// runner across a crash + rejoin: the group-local gather must survive epoch
// bumps, the admission repartition with the joiner as a pure receiver, and
// compacted (dead-rank) capacity vectors, and still match the replicated
// PartitionAlive oracle cell for cell.
func TestCentralPartitionBitExactElastic(t *testing.T) {
	const iters, ranks = 16, 4
	run := func(central bool) []*SPMDResult {
		eps, err := transport.NewGroup(ranks)
		if err != nil {
			t.Fatal(err)
		}
		cfg := elasticConfig(t, iters, t.TempDir())
		h := partition.NewHierarchical(2)
		h.GroupSize = 2
		cfg.Partitioner = h
		cfg.CentralPartition = central
		cfg.Faults = FaultSchedule{
			{Kind: FaultCrash, Rank: 2, Iter: 10},
			{Kind: FaultRejoin, Rank: 2, Iter: 12},
		}
		return runSPMD(t, wrapFaulty(eps), cfg)
	}
	local := run(false)
	cent := run(true)
	if !local[2].Rejoined {
		t.Fatal("rank 2 never rejoined under group-local stage 2")
	}
	var reparts int
	for _, r := range local {
		reparts += r.Repartitions
	}
	if reparts == 0 {
		t.Fatal("no repartition happened across the crash+rejoin run")
	}
	got := composeField(t, local, spmdConfig(iters).Domain)
	want := composeField(t, cent, spmdConfig(iters).Domain)
	requireSameField(t, got, want, "group-local vs central partition across crash+rejoin")
}

// TestCentralPartitionBitExactStragglerShed dilates one rank's compute so
// the straggler detector demotes it mid-run: the group-local gather then
// runs over demoted capacity vectors (and a quarantined rank participates
// as a pure receiver if shedding reaches that stage) and must still match
// the replicated oracle.
func TestCentralPartitionBitExactStragglerShed(t *testing.T) {
	const iters, ranks = 24, 4
	run := func(central bool) []*SPMDResult {
		eps, err := transport.NewGroup(ranks)
		if err != nil {
			t.Fatal(err)
		}
		cfg := elasticConfig(t, iters, t.TempDir())
		h := partition.NewHierarchical(2)
		h.GroupSize = 2
		cfg.Partitioner = h
		cfg.CentralPartition = central
		cfg.Straggler = monitor.DefaultStragglerPolicy()
		cfg.Faults = FaultSchedule{
			{Kind: FaultSlow, Rank: 1, Iter: 6, Until: 20, Factor: 8},
		}
		return runSPMD(t, wrapFaulty(eps), cfg)
	}
	local := run(false)
	cent := run(true)
	if local[0].StragglerDemotions == 0 {
		t.Error("slow window never demoted the straggler")
	}
	got := composeField(t, local, spmdConfig(iters).Domain)
	want := composeField(t, cent, spmdConfig(iters).Domain)
	requireSameField(t, got, want, "group-local vs central partition under straggler shed")
}
