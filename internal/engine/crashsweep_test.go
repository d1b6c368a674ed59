package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"samrpart/internal/geom"
	"samrpart/internal/transport"
)

// The crash-point sweep drives a short fault-tolerant run through one
// injected failure at a time — a crash, a crash followed by a rejoin, or a
// pause at an iteration boundary, or a transport-level death after the k-th
// send — and holds every point to the same contract: each rank either
// finishes or returns a typed error within a wall-clock bound, never hangs
// and never panics, and whatever the finishing ranks hold is bit-exact with
// the fault-free run. The full sweep lives behind the soak build tag; the
// default build runs a fixed sample.

const (
	sweepRanks = 3
	sweepIters = 6
	// sweepBound is the per-point wall-clock budget: far above what any
	// chain of deadline expiries at the sweep's settings can add up to.
	sweepBound = 20 * time.Second
)

// sweepPoint is one injection: a fault schedule, or a transport-level kill
// of victim after its killAfter-th send.
type sweepPoint struct {
	name      string
	victim    int
	faults    FaultSchedule
	killAfter int64
}

// sweepConfig is the sweep's run: three ranks over channels, capacities
// shifting at iteration 2 so the repartitions at 2 and 4 migrate data,
// checkpoints every 2 iterations, and short deadlines so every failure
// resolves in well under a second.
func sweepConfig(dir string) SPMDConfig {
	cfg := spmdConfig(sweepIters)
	cfg.RepartEvery = 2
	cfg.CapsAt = func(iter int) []float64 {
		if iter >= 2 {
			return []float64{0.2, 0.35, 0.45}
		}
		return []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	cfg.RecvDeadline = 500 * time.Millisecond
	cfg.ControlDeadline = 200 * time.Millisecond
	cfg.FT = FTConfig{
		Enabled:         true,
		CheckpointEvery: 2,
		CheckpointDir:   dir,
		RejoinDeadline:  2 * time.Second,
	}
	return cfg
}

// boundaryPoints lists the crash, crash+rejoin and pause of rank at iter.
func boundaryPoints(rank, iter int) []sweepPoint {
	return []sweepPoint{
		{
			name:   fmt.Sprintf("crash/rank=%d/iter=%d", rank, iter),
			victim: rank,
			faults: FaultSchedule{{Kind: FaultCrash, Rank: rank, Iter: iter}},
		},
		{
			name:   fmt.Sprintf("crash+rejoin/rank=%d/iter=%d", rank, iter),
			victim: rank,
			faults: FaultSchedule{
				{Kind: FaultCrash, Rank: rank, Iter: iter},
				{Kind: FaultRejoin, Rank: rank, Iter: iter + 1},
			},
		},
		{
			name:   fmt.Sprintf("pause/rank=%d/iter=%d", rank, iter),
			victim: rank,
			faults: FaultSchedule{{Kind: FaultPause, Rank: rank, Iter: iter, Until: iter + 1}},
		},
	}
}

// killPoint kills rank's endpoint right after its k-th send.
func killPoint(rank int, k int64) sweepPoint {
	return sweepPoint{name: fmt.Sprintf("kill/rank=%d/send=%d", rank, k), victim: rank, killAfter: k}
}

// sweepOutcome is one rank's result of one point.
type sweepOutcome struct {
	res   *SPMDResult
	err   error
	panic string
}

// runSweepRanks runs every rank of cfg over Faulty-wrapped channel
// endpoints (specs[r] configures rank r's wrapper) and returns each rank's
// outcome and wrapper, failing the test if the group outlives sweepBound.
func runSweepRanks(t *testing.T, cfg SPMDConfig, specs []transport.FaultSpec) ([]sweepOutcome, []*transport.Faulty) {
	t.Helper()
	eps, err := transport.NewGroup(sweepRanks)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]*transport.Faulty, sweepRanks)
	out := make([]sweepOutcome, sweepRanks)
	var wg sync.WaitGroup
	for r := range eps {
		fs[r] = transport.NewFaulty(eps[r], specs[r])
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					out[r].panic = fmt.Sprintf("%v\n%s", v, debug.Stack())
				}
			}()
			out[r].res, out[r].err = RunSPMDRank(fs[r], cfg)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(sweepBound):
		t.Fatalf("group still running after %v: hang", sweepBound)
	}
	for _, ep := range eps {
		ep.Close()
	}
	return out, fs
}

// sweepReference runs the fault-free sweep configuration and returns its
// composed solution and each rank's send count.
func sweepReference(t *testing.T) (map[geom.Point]float64, []int64) {
	t.Helper()
	cfg := sweepConfig(t.TempDir())
	out, fs := runSweepRanks(t, cfg, make([]transport.FaultSpec, sweepRanks))
	results := make([]*SPMDResult, sweepRanks)
	sends := make([]int64, sweepRanks)
	for r, o := range out {
		if o.panic != "" || o.err != nil {
			t.Fatalf("fault-free rank %d: err=%v panic=%s", r, o.err, o.panic)
		}
		results[r] = o.res
		sends[r] = fs[r].Stats().Sends
	}
	return composeField(t, results, cfg.Domain), sends
}

// checkSweepPoint runs one injection and enforces the sweep contract.
func checkSweepPoint(t *testing.T, p sweepPoint, want map[geom.Point]float64) {
	t.Helper()
	cfg := sweepConfig(t.TempDir())
	cfg.Faults = p.faults
	specs := make([]transport.FaultSpec, sweepRanks)
	specs[p.victim].KillAfterSends = p.killAfter
	out, _ := runSweepRanks(t, cfg, specs)

	var finished []int
	for r, o := range out {
		if o.panic != "" {
			t.Fatalf("%s: rank %d panicked: %s", p.name, r, o.panic)
		}
		switch {
		case o.err == nil && o.res.Crashed:
			if r != p.victim {
				t.Fatalf("%s: rank %d reports a crash it was not scheduled", p.name, r)
			}
		case o.err == nil:
			finished = append(finished, r)
		case r == p.victim && errors.Is(o.err, transport.ErrClosed):
		case r != p.victim && errors.Is(o.err, transport.ErrRankDown):
		default:
			t.Fatalf("%s: rank %d returned an untyped error: %v", p.name, r, o.err)
		}
	}
	if p.killAfter == 0 && len(p.faults) == 1 && p.faults[0].Kind == FaultCrash {
		if o := out[p.victim]; o.err != nil || !o.res.Crashed {
			t.Fatalf("%s: victim err=%v, want a clean fail-stop crash", p.name, o.err)
		}
	}
	if len(finished) == 0 {
		return
	}
	// The finishing ranks must agree on the membership (two finishers that
	// each wrote the other off would be a split brain), and every cell they
	// hold must match the fault-free run bit for bit. A member may still
	// have failed after its last message reached the finishers — a rank
	// whose final receive timed out, or a victim killed after its last send
	// — so the finishers cover the whole domain only when every member
	// finished.
	dead := out[finished[0]].res.DeadRanks
	for _, r := range finished[1:] {
		if fmt.Sprint(out[r].res.DeadRanks) != fmt.Sprint(dead) {
			t.Fatalf("%s: ranks %d and %d finished with dead sets %v and %v",
				p.name, finished[0], r, dead, out[r].res.DeadRanks)
		}
	}
	isDead := map[int]bool{}
	for _, r := range dead {
		isDead[r] = true
	}
	allFinished := true
	for r, o := range out {
		if !isDead[r] && (o.err != nil || o.res.Crashed) {
			allFinished = false
		}
	}
	got := map[geom.Point]float64{}
	for _, r := range finished {
		for _, pa := range out[r].res.Patches {
			pa.EachInterior(func(pt geom.Point) {
				if _, dup := got[pt]; dup {
					t.Fatalf("%s: cell %v owned twice", p.name, pt)
				}
				got[pt] = pa.At(0, pt)
				if w := want[pt]; got[pt] != w {
					t.Fatalf("%s: rank %d cell %v = %g, want %g (bit-exact)", p.name, r, pt, got[pt], w)
				}
			})
		}
	}
	if allFinished && len(got) != len(want) {
		t.Fatalf("%s: finishers cover %d cells, want %d", p.name, len(got), len(want))
	}
}

// TestCrashPointSweepSample runs a fixed slice of the crash-point sweep in
// the default build: one boundary injection of each kind and kills at a
// quarter, half and three quarters of each rank's sends.
func TestCrashPointSweepSample(t *testing.T) {
	want, sends := sweepReference(t)
	var points []sweepPoint
	points = append(points, boundaryPoints(1, 3)[0], boundaryPoints(2, 1)[1], boundaryPoints(0, 4)[2])
	for r := 0; r < sweepRanks; r++ {
		for _, frac := range []int64{1, 2, 3} {
			points = append(points, killPoint(r, max(1, sends[r]*frac/4)))
		}
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) { checkSweepPoint(t, p, want) })
	}
}
