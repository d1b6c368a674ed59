package engine

import (
	"testing"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// euler3DConfig builds a 3D Euler (Richtmyer-Meshkov) SPMD config: 16^3
// cells in 4^3-cell tiles gives 64 boxes whose halos meet on faces in all
// three axes — the richest region geometry the frame codec has to carry.
func euler3DConfig(iters int) SPMDConfig {
	return SPMDConfig{
		Domain:      geom.Box3(0, 0, 0, 15, 15, 15),
		TileSize:    4,
		Kernel:      solver.NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1}),
		BaseGrid:    solver.UniformGrid(1.0 / 16),
		Partitioner: partition.NewHetero(),
		Iterations:  iters,
		RepartEvery: 4,
	}
}

// gatherPatches merges every rank's final patches into one global map,
// failing on overlap (each interior box must have exactly one owner).
func gatherPatches(t *testing.T, results []*SPMDResult) map[geom.Box]*amr.Patch {
	t.Helper()
	global := map[geom.Box]*amr.Patch{}
	for _, r := range results {
		for b, p := range r.Patches {
			if _, dup := global[b]; dup {
				t.Fatalf("box %v owned by two ranks", b)
			}
			global[b] = p
		}
	}
	return global
}

// comparePatchesBitExact asserts two global patch maps hold identical boxes
// with identical interior values in every field — no tolerance.
func comparePatchesBitExact(t *testing.T, fields int, got, want map[geom.Box]*amr.Patch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("patch count differs: %d vs %d", len(got), len(want))
	}
	for b, wp := range want {
		gp, ok := got[b]
		if !ok {
			t.Fatalf("box %v missing in compared run", b)
		}
		wp.EachInterior(func(pt geom.Point) {
			for f := 0; f < fields; f++ {
				if gp.At(f, pt) != wp.At(f, pt) {
					t.Fatalf("box %v field %d cell %v: %.17g != %.17g",
						b, f, pt, gp.At(f, pt), wp.At(f, pt))
				}
			}
		})
	}
}

// cellValues flattens every rank's final patches into per-cell values of
// every field, failing on overlap, so runs whose repartitions split the
// tiles differently still compare cell for cell.
func cellValues(t *testing.T, fields int, results []*SPMDResult) map[geom.Point][]float64 {
	t.Helper()
	out := map[geom.Point][]float64{}
	for _, r := range results {
		for _, p := range r.Patches {
			p.EachInterior(func(pt geom.Point) {
				if _, dup := out[pt]; dup {
					t.Fatalf("cell %v owned by two ranks", pt)
				}
				v := make([]float64, fields)
				for f := range v {
					v[f] = p.At(f, pt)
				}
				out[pt] = v
			})
		}
	}
	return out
}

// runAgainstSerial runs cfg over a fresh endpoint group from mk and over a
// single rank, and bit-compares the two final global states in every field.
func runAgainstSerial(t *testing.T, cfg SPMDConfig, mk func() []transport.Endpoint) {
	t.Helper()
	coal := runSPMD(t, mk(), cfg)
	serialEps, err := transport.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	serialCfg := cfg
	serialCfg.CapsAt = func(int) []float64 { return []float64{1} }
	serial := runSPMD(t, serialEps, serialCfg)

	var coalReparts, coalMsgs int64
	for _, r := range coal {
		coalReparts += int64(r.Repartitions)
		coalMsgs += r.MsgsSent
	}
	if coalReparts == 0 {
		t.Fatal("no repartition happened; the migration path went unexercised")
	}
	if coalMsgs == 0 {
		t.Fatal("no data-plane messages counted")
	}
	fields := cfg.Kernel.NumFields()
	got, want := cellValues(t, fields, coal), cellValues(t, fields, serial)
	if len(got) != len(want) {
		t.Fatalf("distributed run covers %d cells, serial %d", len(got), len(want))
	}
	for pt, w := range want {
		g, ok := got[pt]
		if !ok {
			t.Fatalf("cell %v missing from the distributed run", pt)
		}
		for f, v := range g {
			if v != w[f] {
				t.Fatalf("cell %v field %d: %.17g != %.17g", pt, f, v, w[f])
			}
		}
	}
}

// TestSPMDCoalescedBitExact3D runs the 3D Euler solver across three ranks
// with a mid-run capacity shift (forcing a repartition and migration) and
// requires the coalesced frames to reproduce the one-rank serial run
// exactly, cell for cell.
func TestSPMDCoalescedBitExact3D(t *testing.T) {
	cfg := euler3DConfig(10)
	cfg.CapsAt = capsSwitcher(3)
	runAgainstSerial(t, cfg, func() []transport.Endpoint {
		eps, err := transport.NewGroup(3)
		if err != nil {
			t.Fatal(err)
		}
		return eps
	})
}

// TestSPMDCoalescedBitExact3DOverTCP repeats the bit-exactness check over
// real sockets, where frames additionally cross the length-prefixed wire
// codec and per-connection buffering.
func TestSPMDCoalescedBitExact3DOverTCP(t *testing.T) {
	cfg := euler3DConfig(6)
	cfg.RepartEvery = 3
	cfg.CapsAt = func(iter int) []float64 {
		caps := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		if iter >= 3 {
			caps = []float64{1.0 / 6, 1.0 / 3, 1.0 / 2}
		}
		return caps
	}
	var groups [][]transport.Endpoint
	defer func() {
		for _, eps := range groups {
			for _, ep := range eps {
				ep.Close()
			}
		}
	}()
	runAgainstSerial(t, cfg, func() []transport.Endpoint {
		eps, err := transport.NewTCPGroup(3, "127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, eps)
		return eps
	})
}

// haloPairOracle recomputes, straight from the assignment with the O(n^2)
// double loop the plan builder no longer uses, the directed communicating
// rank pairs: out[s] is the set of ranks s sends halo data to.
func haloPairOracle(a *partition.Assignment, ranks, ghost int) []map[int]bool {
	out := make([]map[int]bool, ranks)
	for r := range out {
		out[r] = map[int]bool{}
	}
	for i, bi := range a.Boxes {
		for j, bj := range a.Boxes {
			ri, rj := a.Owners[i], a.Owners[j]
			if ri == rj {
				continue
			}
			// Rank rj sends bj's overlap into bi's grown halo to rank ri.
			if !bi.Grow(ghost).Intersect(bj).Empty() && bi.Level == bj.Level {
				out[rj][ri] = true
			}
		}
	}
	return out
}

// TestSPMDCoalescedMessageCount pins the tentpole's contract: with a static
// partition, the coalesced exchange sends exactly one halo message per
// communicating rank pair per iteration — no more, no fewer — as observed
// by the MsgsSent/MsgsRecvd counters against an independently recomputed
// pair oracle.
func TestSPMDCoalescedMessageCount(t *testing.T) {
	const iters, ranks = 5, 3
	cfg := spmdConfig(iters)
	cfg.RepartEvery = 0 // static partition: halo traffic only
	cfg.CapsAt = capsSwitcher(ranks)

	// Recompute the initial assignment exactly as every rank does (no
	// previous assignment at iteration 0, so no affinity remap applies).
	assign, err := cfg.Partitioner.Partition(cfg.tiles(), cfg.CapsAt(0), partition.CellWork)
	if err != nil {
		t.Fatal(err)
	}
	pairs := haloPairOracle(assign, ranks, cfg.Kernel.Ghost())

	eps, err := transport.NewGroup(ranks)
	if err != nil {
		t.Fatal(err)
	}
	results := runSPMD(t, eps, cfg)
	for r, res := range results {
		wantSent := int64(iters) * int64(len(pairs[r]))
		var wantRecvd int64
		for s := 0; s < ranks; s++ {
			if pairs[s][r] {
				wantRecvd += int64(iters)
			}
		}
		if res.MsgsSent != wantSent {
			t.Errorf("rank %d sent %d messages, want exactly %d (%d peers x %d iters)",
				r, res.MsgsSent, wantSent, len(pairs[r]), iters)
		}
		if res.MsgsRecvd != wantRecvd {
			t.Errorf("rank %d received %d messages, want exactly %d", r, res.MsgsRecvd, wantRecvd)
		}
	}
}
