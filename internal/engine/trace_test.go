package engine

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/transport"
)

// runTraced runs a 4-rank SPMD program with a shared trace log attached and
// returns the results plus the parsed records.
func runTraced(t *testing.T, eps []transport.Endpoint, cfg SPMDConfig) ([]*SPMDResult, []obs.Record) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Obs = obs.New(obs.Config{Seed: 1, Trace: &buf})
	results := runSPMD(t, eps, cfg)
	if err := cfg.Obs.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	recs, skipped, err := obs.ReadRecords(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace read: err=%v skipped=%d", err, skipped)
	}
	return results, recs
}

// requireCoverage asserts the stitched critical path attributes at least 95%
// of every iteration's wall-clock (the acceptance bar; the walk actually
// guarantees 100% by construction).
func requireCoverage(t *testing.T, tl *obs.Timeline) {
	t.Helper()
	if len(tl.Iters) == 0 {
		t.Fatal("stitcher produced no iteration windows")
	}
	var wall, covered int64
	for _, w := range tl.Iters {
		wall += w.Wall
		covered += w.Covered
		if w.Wall > 0 && float64(w.Covered) < 0.95*float64(w.Wall) {
			t.Errorf("iter (%d,%d): covered %d of %d ns", w.Epoch, w.Iter, w.Covered, w.Wall)
		}
		if len(w.Chain) == 0 {
			t.Errorf("iter (%d,%d): empty critical-path chain", w.Epoch, w.Iter)
		}
	}
	if float64(covered) < 0.95*float64(wall) {
		t.Fatalf("total coverage %d/%d ns < 95%%", covered, wall)
	}
}

// TestSPMDBitIdenticalWithTrace is the tentpole's safety oracle: the same
// 4-rank program (with a mid-run capacity shift forcing redistribution) run
// with tracing off and with tracing on must produce cell-bitwise identical
// solutions over the channel transport — tracing observes the computation,
// it never perturbs it. The traced run doubles as the -race hammer: four
// rank goroutines record spans into one shared span log during live halo
// exchange.
func TestSPMDBitIdenticalWithTrace(t *testing.T) {
	const iters = 16

	plainEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spmdConfig(iters)
	cfg.CapsAt = capsSwitcher(4)
	want := composeField(t, runSPMD(t, plainEps, cfg), cfg.Domain)

	tracedEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	results, recs := runTraced(t, tracedEps, cfg)
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "traced vs untraced")

	// The trace must tell the whole story: spans from every rank, halo and
	// migration message records, and full critical-path coverage.
	kinds := map[string]int{}
	ranks := map[int]bool{}
	phases := map[string]bool{}
	for _, r := range recs {
		kinds[r.K]++
		ranks[r.R] = true
		if r.K == "s" {
			phases[r.Ph] = true
		}
	}
	if len(ranks) != 4 {
		t.Errorf("trace covers ranks %v, want all 4", ranks)
	}
	if kinds["m"] == 0 || kinds["v"] == 0 {
		t.Errorf("no message records: %v", kinds)
	}
	for _, ph := range []obs.Phase{obs.PhaseCompute, obs.PhasePack, obs.PhaseHaloWait,
		obs.PhaseUnpack, obs.PhaseAdvance, obs.PhasePartition, obs.PhaseMigrate} {
		if !phases[ph.String()] {
			t.Errorf("phase %q never recorded", ph)
		}
	}
	tl := obs.Stitch(recs, 0)
	requireCoverage(t, tl)

	// And the Chrome export renders it without error.
	var chrome bytes.Buffer
	if err := obs.WriteChrome(&chrome, recs, tl); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if !strings.Contains(chrome.String(), `"ph":"X"`) {
		t.Error("chrome export has no span events")
	}
}

// TestSPMDBitIdenticalWithTraceTCP repeats the oracle over the real TCP
// transport, where traced frames actually cross sockets.
func TestSPMDBitIdenticalWithTraceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp trace oracle in -short mode")
	}
	const iters = 12

	plainEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spmdConfig(iters)
	cfg.CapsAt = capsSwitcher(4)
	want := composeField(t, runSPMD(t, plainEps, cfg), cfg.Domain)

	eps, err := transport.NewTCPGroup(4, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	results, recs := runTraced(t, eps, cfg)
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "traced TCP vs untraced chan")
	requireCoverage(t, obs.Stitch(recs, 0))
}

// TestSPMDFTTraceChurn is the composed fault-tolerance oracle with tracing
// on: rank 2 crashes and rejoins, rank 1 drags through a slow window and is
// shed, and the traced run must still be bit-exact with the identical
// untraced run. The stitched timeline must attribute ≥95% of every
// iteration, carry clock-offset estimates from the heartbeat piggybacks, and
// record straggler verdicts consistent with the run's shed decisions.
func TestSPMDFTTraceChurn(t *testing.T) {
	const iters = 36

	mkCfg := func(dir string) SPMDConfig {
		cfg := elasticConfig(t, iters, dir)
		cfg.Straggler = monitor.DefaultStragglerPolicy()
		cfg.ControlDeadline = 500 * time.Millisecond
		cfg.Faults = FaultSchedule{
			{Kind: FaultSlow, Rank: 1, Iter: 6, Until: 20, Factor: 8},
			{Kind: FaultCrash, Rank: 2, Iter: 24},
			{Kind: FaultRejoin, Rank: 2, Iter: 26},
		}
		return cfg
	}

	refEps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := mkCfg(t.TempDir())
	ref := runSPMD(t, wrapFaulty(refEps), refCfg)
	want := composeField(t, ref, refCfg.Domain)

	eps, err := transport.NewGroup(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkCfg(t.TempDir())
	results, recs := runTraced(t, wrapFaulty(eps), cfg)
	if !results[2].Rejoined {
		t.Fatal("rank 2 never rejoined")
	}
	if results[0].StragglerDemotions == 0 {
		t.Error("slow window never demoted the straggler")
	}
	got := composeField(t, results, cfg.Domain)
	requireSameField(t, got, want, "traced FT churn vs untraced")

	tl := obs.Stitch(recs, 0)
	requireCoverage(t, tl)

	// Heartbeat piggybacks must have produced pairwise offset estimates.
	offsets := 0
	for _, r := range recs {
		if r.K == "o" {
			offsets++
		}
	}
	if offsets == 0 {
		t.Error("no clock-offset records from heartbeat piggybacks")
	}
	// Straggler verdicts: the shed decision about rank 1 must appear, and no
	// verdict may name a state the monitor cannot produce.
	sawShed := false
	for _, v := range tl.Verdicts {
		switch v.State {
		case "normal", "shed", "quarantined":
		default:
			t.Errorf("verdict names unknown state %q", v.State)
		}
		if v.Target == 1 && v.State != "normal" {
			sawShed = true
		}
	}
	if !sawShed {
		t.Errorf("no shed verdict for rank 1 in %+v", tl.Verdicts)
	}
	// The churn epochs must be visible in the trace: spans exist for more
	// than one epoch after the crash+rejoin admission bumps.
	epochs := map[int]bool{}
	for _, r := range recs {
		if r.K == "s" {
			epochs[r.E] = true
		}
	}
	if len(epochs) < 2 {
		t.Errorf("trace spans cover epochs %v, want the rejoin's epoch bump visible", epochs)
	}
}
