package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// spmdOpts carries the flags the -spmd mode consumes.
type spmdOpts struct {
	kernel    string
	iters     int
	faults    engine.FaultSchedule
	straggler monitor.StragglerPolicy
	obs       *obs.Runtime // -obs-addr / -trace; nil = off
}

// runSPMD runs an in-process n-rank SPMD group (channel transport, FT on)
// and prints a per-rank summary. With -trace the runtime writes the span
// log that cmd/tracepath analyzes — this is the driver the nightly traced
// chaos soak uses.
func runSPMD(n int, o spmdOpts) error {
	if n < 2 {
		return fmt.Errorf("-spmd needs at least 2 ranks, got %d", n)
	}
	cfg := engine.SPMDConfig{
		Partitioner: partition.NewHetero(),
		CapsAt: func(iter int) []float64 {
			caps := make([]float64, n)
			for i := range caps {
				caps[i] = 1 / float64(n)
			}
			if iter >= o.iters/2 {
				// Shift a third of rank 0's share late in the run so every
				// soak exercises migration, not just halo traffic.
				d := caps[0] / 3
				caps[0] -= d
				caps[n-1] += d
			}
			return caps
		},
		Iterations:      o.iters,
		RepartEvery:     4,
		RecvDeadline:    10 * time.Second,
		ControlDeadline: 500 * time.Millisecond,
		Faults:          o.faults,
		Straggler:       o.straggler,
		Obs:             o.obs,
	}
	switch o.kernel {
	case "advect2d":
		cfg.Kernel = solver.NewAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1)
	case "muscl2d":
		cfg.Kernel = solver.NewMUSCLAdvection2D(1.0, 0.5, 0.3, 0.3, 0.1)
	case "buckley":
		cfg.Kernel = solver.NewBuckleyLeverett(1.0, 0.3)
	case "rm3d":
		cfg.Kernel = solver.NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1})
	default:
		return fmt.Errorf("unknown -kernel %q for -spmd (want advect2d, muscl2d, buckley or rm3d)", o.kernel)
	}
	if o.kernel == "rm3d" {
		cfg.Domain = geom.Box3(0, 0, 0, 15, 15, 15)
		cfg.TileSize = 4
		cfg.BaseGrid = solver.UniformGrid(1.0 / 16)
	} else {
		cfg.Domain = geom.Box2(0, 0, 31, 31)
		cfg.TileSize = 8
		cfg.BaseGrid = solver.UniformGrid(1.0 / 32)
	}

	ckDir, err := os.MkdirTemp("", "amrun-spmd-ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckDir)
	cfg.FT = engine.FTConfig{
		Enabled:         true,
		CheckpointEvery: 4,
		CheckpointDir:   ckDir,
		SyncCheckpoint:  true,
		CheckpointKeep:  2,
	}

	eps, err := transport.NewGroup(n)
	if err != nil {
		return err
	}
	for i, ep := range eps {
		eps[i] = transport.NewFaulty(ep, transport.FaultSpec{})
	}
	results := make([]*engine.SPMDResult, n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for r := range eps {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = engine.RunSPMDRank(eps[r], cfg)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	wall := time.Since(start)

	var bytes int64
	members, recoveries, demotions, promotions := 0, 0, 0, 0
	for _, r := range results {
		bytes += r.BytesSent
		if r.Crashed {
			continue
		}
		members++
		if r.Recoveries > recoveries {
			recoveries = r.Recoveries
		}
		if r.StragglerDemotions > demotions {
			demotions = r.StragglerDemotions
		}
		if r.StragglerPromotions > promotions {
			promotions = r.StragglerPromotions
		}
	}
	fmt.Printf("spmd: %d ranks, %d iterations in %.1fms: %d finished members, %d recoveries, %d demotions, %d promotions, %.3f MB sent\n",
		n, o.iters, float64(wall.Microseconds())/1e3, members, recoveries,
		demotions, promotions, float64(bytes)/1e6)
	return nil
}
