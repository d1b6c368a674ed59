package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// schedule returns the capacity schedule for a group of n ranks; n is 1
// for the serial oracle and baseline runs.
type schedule func(n int) func(iter int) []float64

// spmdBench repeats one RunSPMDRank group run on a transport group that
// lives from set-up to close.
type spmdBench struct {
	cfg   engine.SPMDConfig
	sched schedule
	n     int
	tcp   bool
	work  string
	eps   []transport.Endpoint

	// ref holds the serial reference solution's bits, field-major over
	// the domain's cells in x-fastest order.
	ref []uint64
	// owner is where the replayed partition decisions leave every box;
	// vexec is the paper's time model applied to them.
	owner map[geom.Box]int
	final *partition.Assignment
	vexec float64

	last      []*engine.SPMDResult
	ckptBytes int64
}

// newEuler3DTCP: 3D Richtmyer–Meshkov Euler on 32³ cells in 8³ tiles, two
// ranks over TCP loopback, fault-tolerant runner with heartbeats and async
// checkpoints. The seed picks which rank cedes capacity first and how much;
// the ceding rank alternates at every repartition, so data migrates each
// time. The amount of work moved is the same on every seed.
func newEuler3DTCP(seed int64, work string) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	const repartEvery = 5
	cede := 0.09 + 0.02*rng.Float64()
	first := rng.Intn(2)
	sched := func(n int) func(int) []float64 {
		return func(iter int) []float64 {
			if n == 1 {
				return []float64{1}
			}
			caps := []float64{0.5, 0.5}
			loser := (first + iter/repartEvery) % 2
			caps[loser] -= cede
			caps[1-loser] += cede
			return caps
		}
	}
	cfg := engine.SPMDConfig{
		Domain:      geom.Box3(0, 0, 0, 31, 31, 31),
		TileSize:    8,
		Kernel:      solver.NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1}),
		BaseGrid:    solver.UniformGrid(1.0 / 32),
		Partitioner: partition.NewHetero(),
		Iterations:  40,
		RepartEvery: repartEvery,
		FT:          engine.FTConfig{Enabled: true, CheckpointEvery: 10, CheckpointKeep: 2},
	}
	return newSPMD(cfg, sched, true, work)
}

// newAdvect2DChan: first-order 2D advection on 128² cells in 4² tiles
// (1024 boxes), two ranks over in-process channels, plain runner,
// repartitioning every 2 iterations under an oscillating capacity
// schedule. The seed sets the oscillation's starting phase, one of four a
// quarter period apart so every seed samples the capacities in the same
// cycle, and its amplitude within a narrow band, so every seed
// repartitions and migrates about as much; it also sets the advected pulse.
func newAdvect2DChan(seed int64, work string) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	const period = 8
	amp := 0.095 + 0.01*rng.Float64()
	phase := math.Pi / 4 * float64(1+2*rng.Intn(4))
	sched := func(n int) func(int) []float64 {
		return func(iter int) []float64 {
			if n == 1 {
				return []float64{1}
			}
			d := amp * math.Sin(2*math.Pi*float64(iter)/period+phase)
			return []float64{0.5 + d, 0.5 - d}
		}
	}
	vx, vy := 0.5+0.5*rng.Float64(), 0.5+0.5*rng.Float64()
	cx, cy := 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64()
	width := 0.08 + 0.04*rng.Float64()
	cfg := engine.SPMDConfig{
		Domain:      geom.Box2(0, 0, 127, 127),
		TileSize:    4,
		Kernel:      solver.NewAdvection2D(vx, vy, cx, cy, width),
		BaseGrid:    solver.UniformGrid(1.0 / 128),
		Partitioner: partition.NewHetero(),
		Iterations:  40,
		RepartEvery: 2,
	}
	return newSPMD(cfg, sched, false, work)
}

// newSPMD computes the oracle: a serial one-rank run with the per-point
// reference kernel, and a replay of the partition decisions.
func newSPMD(cfg engine.SPMDConfig, sched schedule, tcp bool, work string) (*spmdBench, error) {
	s := &spmdBench{cfg: cfg, sched: sched, n: 2, tcp: tcp, work: work}
	s.cfg.CapsAt = sched(s.n)
	serial := s.serialConfig()
	serial.Kernel = solver.Reference(cfg.Kernel)
	res, _, err := runSerial(serial)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	nf := cfg.Kernel.NumFields()
	cells := int(cfg.Domain.Cells())
	s.ref = make([]uint64, nf*cells)
	for _, p := range res.Patches {
		forEachCell(cfg.Domain, p.Box, func(i int, pt geom.Point) {
			for f := 0; f < nf; f++ {
				s.ref[f*cells+i] = math.Float64bits(p.At(f, pt))
			}
		})
	}
	if err := s.replay(); err != nil {
		return nil, fmt.Errorf("partition replay: %w", err)
	}
	return s, nil
}

// serialConfig is the workload's configuration on one rank, plain runner.
func (s *spmdBench) serialConfig() engine.SPMDConfig {
	c := s.cfg
	c.CapsAt = s.sched(1)
	c.FT = engine.FTConfig{}
	return c
}

func runSerial(cfg engine.SPMDConfig) (*engine.SPMDResult, time.Duration, error) {
	eps, err := transport.NewGroup(1)
	if err != nil {
		return nil, 0, err
	}
	defer eps[0].Close()
	t0 := time.Now()
	res, err := runGroup(eps, cfg)
	if err != nil {
		return nil, 0, err
	}
	return res[0], time.Since(t0), nil
}

// runGroup runs one rank per endpoint and waits for all of them.
func runGroup(eps []transport.Endpoint, cfg engine.SPMDConfig) ([]*engine.SPMDResult, error) {
	res := make([]*engine.SPMDResult, len(eps))
	err := onEveryRank(eps, func(r int, ep transport.Endpoint) (err error) {
		res[r], err = engine.RunSPMDRank(ep, cfg)
		return err
	})
	return res, err
}

// onEveryRank runs fn concurrently on every endpoint and waits for all.
func onEveryRank(eps []transport.Endpoint, fn func(r int, ep transport.Endpoint) error) error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for r, ep := range eps {
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			errs[r] = fn(r, ep)
		}(r, ep)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// forEachCell visits b's cells with their linear index in domain d.
func forEachCell(d, b geom.Box, fn func(i int, pt geom.Point)) {
	nx, ny := d.Size(0), d.Size(1)
	for z := b.Lo[2]; z <= b.Hi[2]; z++ {
		for y := b.Lo[1]; y <= b.Hi[1]; y++ {
			for x := b.Lo[0]; x <= b.Hi[0]; x++ {
				fn(((z-d.Lo[2])*ny+(y-d.Lo[1]))*nx+(x-d.Lo[0]), geom.Point{x, y, z})
			}
		}
	}
}

// tiles is the fixed decomposition RunSPMDRank partitions, in its order.
func tiles(d geom.Box, t int) geom.BoxList {
	var out geom.BoxList
	for z := d.Lo[2]; z <= d.Hi[2]; z += t {
		for y := d.Lo[1]; y <= d.Hi[1]; y += t {
			for x := d.Lo[0]; x <= d.Hi[0]; x += t {
				if d.Rank == 2 {
					out = append(out, geom.Box2(x, y, min(x+t-1, d.Hi[0]), min(y+t-1, d.Hi[1])))
				} else {
					out = append(out, geom.Box3(x, y, z, min(x+t-1, d.Hi[0]), min(y+t-1, d.Hi[1]), min(z+t-1, d.Hi[2])))
				}
			}
		}
	}
	return out
}

// replay repeats the partition decisions a solve makes — the partitioner
// over the tiles at every repartition iteration, each result relabeled
// against the previous one by partition.RemapOwners — and charges each
// stretch of iterations the paper's compute-time model: rank k runs at its
// capacity share of n year-2001 workstations, and an iteration lasts as
// long as the slowest rank. A solve's final ownership must match the
// replay, so the model describes the partitions the solve really used.
func (s *spmdBench) replay() error {
	c := s.cfg
	ts := tiles(c.Domain, c.TileSize)
	speed := cluster.LinuxWorkstation().SpeedMFlops * 1e6
	flops := c.Kernel.FlopsPerCell()
	var prev *partition.Assignment
	for it := 0; it < c.Iterations; it += c.RepartEvery {
		caps := c.CapsAt(it)
		a, err := c.Partitioner.Partition(ts, caps, partition.CellWork)
		if err != nil {
			return err
		}
		if prev != nil {
			a = partition.RemapOwners(prev, a)
		}
		work := make([]float64, s.n)
		for i, b := range a.Boxes {
			work[a.Owners[i]] += float64(b.Cells())
		}
		slowest := 0.0
		for k, w := range work {
			slowest = math.Max(slowest, w*flops/(caps[k]*float64(s.n)*speed))
		}
		s.vexec += float64(min(c.RepartEvery, c.Iterations-it)) * slowest
		prev = a
	}
	s.final = prev
	s.owner = make(map[geom.Box]int, len(prev.Boxes))
	for i, b := range prev.Boxes {
		s.owner[b] = prev.Owners[i]
	}
	return nil
}

func (s *spmdBench) setUp() error {
	var err error
	if s.tcp {
		s.eps, err = transport.NewTCPGroup(s.n, "127.0.0.1")
	} else {
		s.eps, err = transport.NewGroup(s.n)
	}
	if err != nil {
		return err
	}
	_, err = s.solve(nil)
	return err
}

func (s *spmdBench) close() error {
	var errs []error
	for _, ep := range s.eps {
		errs = append(errs, ep.Close())
	}
	s.eps = nil
	return errors.Join(errs...)
}

func (s *spmdBench) solve(tr *tracer) (sample, error) {
	cfg := s.cfg
	if cfg.FT.Enabled {
		cfg.FT.CheckpointDir = filepath.Join(s.work, "ckpt")
		if err := os.RemoveAll(cfg.FT.CheckpointDir); err != nil {
			return sample{}, err
		}
		defer os.RemoveAll(cfg.FT.CheckpointDir)
	}
	if tr != nil {
		cfg.Kernel = tr.kernel(cfg.Kernel)
		cfg.Partitioner = tr.partitioner(cfg.Partitioner)
	}
	end := begin(tr)
	res, err := runGroup(s.eps, cfg)
	smp := end()
	if err != nil {
		return smp, err
	}
	if err := s.check(res); err != nil {
		return smp, err
	}
	s.last = res
	if cfg.FT.Enabled {
		if s.ckptBytes, err = dirBytes(cfg.FT.CheckpointDir); err != nil {
			return smp, err
		}
	}
	return smp, nil
}

// check compares the distributed solution with the serial reference bit
// for bit in every field, keyed by global cell (repartitions split tiles,
// so the box sets differ), and asserts that every cell has exactly one
// owner, that no rank was lost, and that the solve repartitioned and
// migrated data as the workload intends.
func (s *spmdBench) check(res []*engine.SPMDResult) error {
	d := s.cfg.Domain
	cells := int(d.Cells())
	nf := s.cfg.Kernel.NumFields()
	owners := make([]uint8, cells)
	var migrated int64
	boxes := 0
	for r, x := range res {
		if x.Crashed || len(x.DeadRanks) > 0 {
			return fmt.Errorf("rank %d: crashed %v, dead ranks %v", r, x.Crashed, x.DeadRanks)
		}
		if x.Repartitions == 0 {
			return fmt.Errorf("rank %d never repartitioned", r)
		}
		migrated += x.MigratedBytes
		boxes += len(x.Patches)
		for b, p := range x.Patches {
			if o, ok := s.owner[b]; !ok || o != r {
				return fmt.Errorf("rank %d owns %v; the partition replay gives it to rank %d (present %v)", r, b, o, ok)
			}
			var bad error
			forEachCell(d, b, func(i int, pt geom.Point) {
				owners[i]++
				for f := 0; f < nf && bad == nil; f++ {
					if got := math.Float64bits(p.At(f, pt)); got != s.ref[f*cells+i] {
						bad = fmt.Errorf("cell %v field %d: %v, serial reference %v",
							pt, f, p.At(f, pt), math.Float64frombits(s.ref[f*cells+i]))
					}
				}
			})
			if bad != nil {
				return bad
			}
		}
	}
	if migrated == 0 {
		return errors.New("no data migrated")
	}
	if boxes != len(s.owner) {
		return fmt.Errorf("ranks own %d boxes, the partition replay %d", boxes, len(s.owner))
	}
	for i, n := range owners {
		if n != 1 {
			return fmt.Errorf("cell %d has %d owners", i, n)
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func (s *spmdBench) iters() int            { return s.cfg.Iterations }
func (s *spmdBench) ranks() int            { return s.n }
func (s *spmdBench) virtualExecS() float64 { return s.vexec }

func (s *spmdBench) layers(m metrics, untraced []sample) error {
	var msgs, sent, migrated, retained, interior, boundary float64
	shards := 0
	for _, x := range s.last {
		msgs += float64(x.MsgsSent)
		sent += float64(x.BytesSent)
		migrated += float64(x.MigratedBytes)
		retained += float64(x.RetainedBytes)
		interior += float64(x.InteriorSteps)
		boundary += float64(x.BoundarySteps)
		shards += x.Checkpoints
	}
	it := float64(s.cfg.Iterations)
	m.set("transport.msgs_per_iter", msgs/it)
	m.set("transport.bytes_per_iter", sent/it)
	m.set("engine.repartitions", float64(s.last[0].Repartitions))
	m.set("engine.migrated_mb", migrated/1e6)
	m.set("engine.retained_frac", retained/(migrated+retained))
	m.set("engine.boundary_step_frac", boundary/(interior+boundary))
	m.set("checkpoint.shards", float64(shards))
	m.set("checkpoint.mb", float64(s.ckptBytes)/1e6)

	asn, err := transport.EncodeGob(struct {
		Boxes  []geom.Box
		Owners []int
	}{s.final.Boxes, s.final.Owners})
	if err != nil {
		return err
	}
	if err := s.collectives(m, len(asn), int(sent/msgs)); err != nil {
		return fmt.Errorf("collectives: %w", err)
	}

	// The single-rank baseline: the same problem with the fused kernel on
	// one rank, no transport traffic.
	var serial []float64
	for i := 0; i < 3; i++ {
		_, d, err := runSerial(s.serialConfig())
		if err != nil {
			return fmt.Errorf("serial baseline: %w", err)
		}
		serial = append(serial, d.Seconds())
	}
	base := median(serial)
	m.set("engine.serial_solve_s", base)
	m.set("engine.parallel_efficiency", base/(float64(s.n)*median(walls(untraced))))

	// Layers this workload does not run.
	m.set("monitor.sense_s", 0)
	m.set("cluster.virtual_compute_s", 0)
	m.set("cluster.virtual_sense_s", 0)
	m.set("cluster.moved_mb", 0)
	return nil
}

// collectives times the group's collectives standalone, on the workload's
// own endpoints: an all-reduce of one float64 (the dt agreement), a
// broadcast of an assignment-sized payload, and a broadcast of a
// frame-sized payload for bandwidth.
func (s *spmdBench) collectives(m metrics, asnBytes, frameBytes int) error {
	const reps = 200
	timed := func(op func(ep transport.Endpoint) error) (float64, error) {
		t0 := time.Now()
		err := onEveryRank(s.eps, func(_ int, ep transport.Endpoint) error {
			for i := 0; i < reps; i++ {
				if err := op(ep); err != nil {
					return err
				}
			}
			return nil
		})
		return time.Since(t0).Seconds() / reps, err
	}
	bcast := func(payload []byte) func(ep transport.Endpoint) error {
		return func(ep transport.Endpoint) error {
			_, err := ep.Bcast(0, payload)
			return err
		}
	}
	ar, err := timed(func(ep transport.Endpoint) error {
		_, err := transport.AllReduceFloat64(ep, float64(ep.Rank()), transport.ReduceMin)
		return err
	})
	if err != nil {
		return err
	}
	bc, err := timed(bcast(make([]byte, asnBytes)))
	if err != nil {
		return err
	}
	fr, err := timed(bcast(make([]byte, frameBytes)))
	if err != nil {
		return err
	}
	m.set("transport.allreduce_us", ar*1e6)
	m.set("transport.bcast_us", bc*1e6)
	m.set("transport.bw_gbps", float64(frameBytes)/fr/1e9)
	return nil
}
