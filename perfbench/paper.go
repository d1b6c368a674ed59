package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/monitor"
	"samrpart/internal/partition"
)

const (
	paperNodes = 8
	paperIters = 200
)

// paperBench repeats the virtual-time Engine run behind the paper's
// figures: the RM3D oracle application on the paper's 3-level hierarchy,
// over eight virtual nodes under seeded background load, partitioned by
// ACEHeterogeneous with sensing and regridding every 5 iterations.
type paperBench struct {
	features []engine.Feature
	loads    func(*cluster.Cluster)
	// ref is the RunTrace of the reference run made before set-up; every
	// solve's trace must equal it.
	ref  any
	last paperOut
}

// paperOut holds the RunTrace fields the metrics read.
type paperOut struct {
	exec, compute, sense, moved, retained float64
	repartitions                          int
}

// newPaperRM3D draws the oracle application's features and the per-node
// loads from the seed, makes the reference run, and checks the paper's
// Figure 7 shape on the same inputs: ACEHeterogeneous beats ACEComposite
// on mean max imbalance and on virtual compute time.
func newPaperRM3D(seed int64, _ string) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &paperBench{}
	for _, f := range engine.NewRM3DOracle().Features {
		f.Pos += 8*rng.Float64() - 4
		f.Speed *= 0.9 + 0.2*rng.Float64()
		f.HalfWidth *= 0.95 + 0.1*rng.Float64()
		f.Pulsate *= 0.9 + 0.2*rng.Float64()
		p.features = append(p.features, f)
	}
	// Even nodes carry a static load, a seeded permutation of load levels
	// spanning exp.PaperLoadScript's 0.3–0.72, so the cluster stays as
	// heterogeneous on every seed; odd nodes carry a light sinusoid of
	// seeded amplitude and period that the periodic sensing follows. The
	// ranges are narrow so every seed costs about as much virtual time.
	levels := []float64{0.3, 0.35, 0.68, 0.72}
	perm := rng.Perm(len(levels))
	waves := make([]cluster.Sinusoid, paperNodes/2)
	for i := range waves {
		waves[i] = cluster.Sinusoid{
			Mean:      0.15,
			Amplitude: 0.05 + 0.05*rng.Float64(),
			Period:    20 + 40*rng.Float64(),
			MemMB:     20,
		}
	}
	p.loads = func(c *cluster.Cluster) {
		for i := 0; i < paperNodes/2; i++ {
			t := levels[perm[i%len(perm)]]
			c.Node(2 * i).AddLoad(cluster.Step{CPU: t, MemMB: 150 * t})
			c.Node(2*i + 1).AddLoad(waves[i])
		}
	}

	e, err := p.engine(p.app(), partition.NewHetero())
	if err != nil {
		return nil, err
	}
	ht, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := checkTrace(ht.Degraded, len(ht.Records)); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	p.ref = ht

	e, err = p.engine(p.app(), partition.NewComposite(2))
	if err != nil {
		return nil, err
	}
	ct, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("ACEComposite run: %w", err)
	}
	meanImb := func(recs []float64) float64 { return sum(recs) / float64(len(recs)) }
	var hImb, cImb []float64
	for _, r := range ht.Records {
		hImb = append(hImb, r.MaxImbalance())
	}
	for _, r := range ct.Records {
		cImb = append(cImb, r.MaxImbalance())
	}
	hi, ci := meanImb(hImb), meanImb(cImb)
	fmt.Printf("fig7 shape: mean max imbalance %.1f%% vs %.1f%%, virtual compute %.1f s vs %.1f s (ACEHeterogeneous vs ACEComposite)\n",
		hi, ci, ht.ComputeTime, ct.ComputeTime)
	if hi >= ci || ht.ComputeTime >= ct.ComputeTime {
		return nil, errors.New("figure 7 shape does not hold: ACEHeterogeneous is not better than ACEComposite")
	}
	return p, nil
}

func (p *paperBench) app() *engine.OracleApp {
	a := engine.NewRM3DOracle()
	a.Features = append([]engine.Feature(nil), p.features...)
	return a
}

// newCluster builds the loaded virtual cluster; every solve needs a fresh
// one because a run advances its clock.
func (p *paperBench) newCluster() (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Uniform(paperNodes, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		return nil, err
	}
	p.loads(c)
	return c, nil
}

func (p *paperBench) engine(app engine.Application, part partition.Partitioner) (*engine.Engine, error) {
	c, err := p.newCluster()
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{
		Name:        "paper-rm3d",
		Hierarchy:   exp.RM3DHierarchy(),
		App:         app,
		Partitioner: part,
		Iterations:  paperIters,
		RegridEvery: 5,
		SenseEvery:  5,
		Workers:     1,
	}, c)
}

// checkTrace asserts the control loop never fell back (a wrapped
// partitioner would change the fallback chain) and that the run regridded.
func checkTrace(degraded any, records int) error {
	if !reflect.ValueOf(degraded).IsZero() {
		return fmt.Errorf("control loop degraded: %+v", degraded)
	}
	if records == 0 {
		return errors.New("no regrid records")
	}
	return nil
}

func (p *paperBench) setUp() error {
	_, err := p.solve(nil)
	return err
}

func (p *paperBench) close() error { return nil }

func (p *paperBench) solve(tr *tracer) (sample, error) {
	var app engine.Application = p.app()
	var part partition.Partitioner = partition.NewHetero()
	if tr != nil {
		app = tr.application(app)
		part = tr.partitioner(part)
	}
	e, err := p.engine(app, part)
	if err != nil {
		return sample{}, err
	}
	end := begin(tr)
	rt, err := e.Run()
	smp := end()
	if err != nil {
		return smp, err
	}
	if err := checkTrace(rt.Degraded, len(rt.Records)); err != nil {
		return smp, err
	}
	if !reflect.DeepEqual(any(rt), p.ref) {
		return smp, fmt.Errorf("run trace differs from the reference run: exec %v s", rt.ExecTime)
	}
	p.last = paperOut{rt.ExecTime, rt.ComputeTime, rt.SenseTime, rt.MovedBytes, rt.RetainedBytes, rt.Repartitions}
	return smp, nil
}

func (p *paperBench) iters() int            { return paperIters }
func (p *paperBench) ranks() int            { return 1 }
func (p *paperBench) virtualExecS() float64 { return p.last.exec }

func (p *paperBench) layers(m metrics, _ []sample) error {
	// Standalone sensing sweeps of the workload's cluster.
	c, err := p.newCluster()
	if err != nil {
		return err
	}
	mon := monitor.New(monitor.ClusterProber{C: c}, func() monitor.Forecaster {
		f, _ := monitor.NewForecaster("last") // a known name never errors
		return f
	})
	const sweeps = 2000
	t0 := time.Now()
	for i := 0; i < sweeps; i++ {
		mon.Sense(float64(i))
	}
	m.set("monitor.sense_s", time.Since(t0).Seconds()/sweeps)

	o := p.last
	m.set("cluster.virtual_compute_s", o.compute)
	m.set("cluster.virtual_sense_s", o.sense)
	m.set("cluster.moved_mb", o.moved/1e6)
	m.set("engine.repartitions", float64(o.repartitions))
	m.set("engine.migrated_mb", o.moved/1e6)
	m.set("engine.retained_frac", o.retained/(o.moved+o.retained))

	// Layers this workload does not run: no transport, no numerics, no
	// checkpoints.
	for _, name := range []string{"engine.boundary_step_frac", "engine.serial_solve_s", "engine.parallel_efficiency",
		"transport.msgs_per_iter", "transport.bytes_per_iter", "transport.allreduce_us", "transport.bcast_us",
		"transport.bw_gbps", "checkpoint.shards", "checkpoint.mb"} {
		m.set(name, 0)
	}
	return nil
}
