// Command amrun runs an AMR application on a simulated heterogeneous
// cluster and prints the execution summary and per-regrid assignments.
//
//	go run ./cmd/amrun -nodes 8 -partitioner hetero -iters 100 -load
//	go run ./cmd/amrun -kernel advect2d -nodes 4 -iters 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"samrpart/internal/amr"
	"samrpart/internal/checkpoint"
	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/trace"
)

// hygieneConfig maps the -hygiene flag to a monitor.Hygiene; the zero value
// keeps the raw pre-hygiene sensing path.
func hygieneConfig(on bool) monitor.Hygiene {
	if !on {
		return monitor.Hygiene{}
	}
	return monitor.DefaultHygiene()
}

func main() {
	var (
		nodes        = flag.Int("nodes", 4, "cluster size")
		pname        = flag.String("partitioner", "hetero", "hetero | composite | sfchetero | levelwise | hierarchical | greedy | roundrobin")
		groupSize    = flag.Int("group-size", 4, "nodes per capacity group for -partitioner hierarchical")
		kernel       = flag.String("kernel", "rm3d", "rm3d (oracle-driven) | advect2d | muscl2d | buckley (real numerics)")
		iters        = flag.Int("iters", 50, "coarse iterations")
		regrid       = flag.Int("regrid", 5, "regrid every N iterations")
		sense        = flag.Int("sense", 0, "re-sense every N iterations (0 = once at start)")
		load         = flag.Bool("load", false, "apply the paper's synthetic background-load script")
		verbose      = flag.Bool("v", false, "print per-regrid assignments")
		forecast     = flag.String("forecaster", "last", "monitor forecaster: last|mean|median|ewma|adaptive")
		saveCkpt     = flag.String("save", "", "write a checkpoint of the final state to this file")
		loadCkpt     = flag.String("restore", "", "restore hierarchy/solution from this checkpoint before running")
		stats        = flag.Bool("stats", false, "print per-level hierarchy statistics")
		workers      = flag.Int("workers", 0, "solver worker-pool width (0 = all cores, 1 = serial; any value is bit-exact)")
		senseWorkers = flag.Int("sense-workers", 0,
			"monitor probe fan-out width (0/1 = serial; >1 probes that many nodes concurrently, bit-exact)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		ckEvery  = flag.Int("checkpoint-every", 0, "write a periodic checkpoint every N iterations (0 = off)")
		ckPath   = flag.String("checkpoint-path", "", "periodic checkpoint file (required with -checkpoint-every)")
		faultStr = flag.String("fault-spec", "",
			"inject ';'-separated faults, e.g. crash:node=2,iter=10;rejoin:node=2,iter=18;slow:node=1,from=5,to=12,factor=4 (kinds: crash|rejoin|pause|slow; see DESIGN.md §13)")
		rejoinOK = flag.Bool("rejoin", true,
			"honor rejoin: events in -fault-spec; false strips them for a fail-stop baseline of the same churn script")
		stragShed = flag.Bool("straggler-shed", false,
			"detect persistently slow nodes (EWMA/MAD with hysteresis) and shed work off them before their sensors report trouble")
		ckKeep = flag.Int("checkpoint-keep", 0,
			"retain the N newest periodic checkpoints as iteration-stamped siblings for corruption fallback (0 = overwrite only)")
		sensorStr = flag.String("sensor-fault-spec", "",
			"inject sensor faults, e.g. sensor:seed=7,frac=0.25,drop=0.1,timeout=0.1,garbage=0.2,freeze=0.02")
		hygiene = flag.Bool("hygiene", false,
			"enable sensing hygiene (health tracking, sanitization, MAD outlier rejection, staleness decay)")
		repartThresh = flag.Float64("repartition-threshold", 0,
			"skip sense-triggered repartitions that improve max-imbalance by less than this many percentage points (0 = always repartition)")
		affinityRemap = flag.Bool("affinity-remap", false,
			"relabel repartition output toward the previous owners (partition.RemapOwners) to cut migration volume at unchanged balance")
		obsAddr = flag.String("obs-addr", "",
			"serve /metrics, /state, /healthz and pprof on this address while running (e.g. 127.0.0.1:9190)")
		obsSeed = flag.Int64("obs-seed", 0, "seed for the run ID reported by /healthz and /state (0 = wall clock)")
		spmd    = flag.Int("spmd", 0,
			"run an in-process N-rank SPMD group (channel transport, FT on) instead of the virtual-cluster engine; honors -kernel, -iters, -fault-spec, -straggler-shed, -obs-addr, -trace")
		traceOut = flag.String("trace", "",
			"write the span log (JSONL) to this file; analyze it with cmd/tracepath")
	)
	flag.Parse()

	var faults engine.FaultSchedule
	if *faultStr != "" {
		var err error
		faults, err = engine.ParseFaultSpec(*faultStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrun:", err)
			os.Exit(2)
		}
		if !*rejoinOK {
			faults = faults.WithoutRejoins()
		}
	}
	var straggler monitor.StragglerPolicy
	if *stragShed {
		straggler = monitor.DefaultStragglerPolicy()
	}

	var obsRT *obs.Runtime
	if *obsAddr != "" || *traceOut != "" {
		var f *os.File
		var tw io.Writer
		if *traceOut != "" {
			var err error
			if f, err = os.Create(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "amrun:", err)
				os.Exit(1)
			}
			tw = f
		}
		obsRT = obs.New(obs.Config{Seed: *obsSeed, Trace: tw})
		defer func() {
			if err := obsRT.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "amrun: flush span log:", err)
			}
			if f != nil {
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "amrun: close span log:", err)
				}
			}
		}()
		if *obsAddr != "" {
			srv, err := obsRT.Serve(*obsAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "amrun:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "amrun: observability on http://%s (run %s)\n",
				srv.Addr(), obsRT.RunIDString())
		}
	}

	if *spmd > 0 {
		if err := runSPMD(*spmd, spmdOpts{
			kernel:    *kernel,
			iters:     *iters,
			faults:    faults,
			straggler: straggler,
			obs:       obsRT,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "amrun:", err)
			_ = obsRT.Flush() // best effort: keep the partial span log of a failed run
			os.Exit(1)
		}
		return
	}

	var sensorFaults *monitor.ProbeFaultSpec
	if *sensorStr != "" {
		var err error
		sensorFaults, err = monitor.ParseProbeFaultSpec(*sensorStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrun:", err)
			os.Exit(2)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrun:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "amrun:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "amrun:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "amrun:", err)
			}
		}()
	}

	var p partition.Partitioner
	switch *pname {
	case "hetero":
		p = partition.NewHetero()
	case "composite":
		p = partition.NewComposite(2)
	case "greedy":
		p = partition.Greedy{}
	case "roundrobin":
		p = partition.RoundRobin{}
	case "sfchetero":
		p = partition.NewSFCHetero(2)
	case "levelwise":
		p = partition.NewLevelWise(2)
	case "hierarchical":
		h := partition.NewHierarchical(2)
		h.GroupSize = *groupSize
		p = h
	default:
		fmt.Fprintf(os.Stderr, "amrun: unknown partitioner %q\n", *pname)
		os.Exit(2)
	}

	var app engine.Application
	hier := exp.RM3DHierarchy()
	switch *kernel {
	case "rm3d":
		app = engine.NewRM3DOracle()
	case "advect2d":
		app = engine.NewSimApp(
			solver.NewAdvection2D(1.0, 0.5, 0.25, 0.25, 0.08),
			solver.UniformGrid(1.0/64), 0.08)
		hier = amr.Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     3,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.65, MinSide: 4},
		}
	case "muscl2d":
		app = engine.NewSimApp(
			solver.NewMUSCLAdvection2D(1.0, 0.5, 0.25, 0.25, 0.08),
			solver.UniformGrid(1.0/64), 0.08)
		hier = amr.Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     2,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.65, MinSide: 4},
		}
	case "buckley":
		app = engine.NewSimApp(
			solver.NewBuckleyLeverett(1.0, 0.3),
			solver.UniformGrid(1.0/64), 0.1)
		hier = amr.Config{
			Domain:        geom.Box2(0, 0, 63, 63),
			RefineRatio:   2,
			MaxLevels:     2,
			NestingBuffer: 1,
			Cluster:       amr.ClusterOptions{Efficiency: 0.65, MinSide: 4},
		}
	default:
		fmt.Fprintf(os.Stderr, "amrun: unknown kernel %q\n", *kernel)
		os.Exit(2)
	}

	clus, err := cluster.New(cluster.Uniform(*nodes, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrun:", err)
		os.Exit(1)
	}
	if *load {
		exp.PaperLoadScript(clus)
	}
	e, err := engine.New(engine.Config{
		Name:                 fmt.Sprintf("%s/%s", *kernel, p.Name()),
		Hierarchy:            hier,
		App:                  app,
		Partitioner:          p,
		Iterations:           *iters,
		RegridEvery:          *regrid,
		SenseEvery:           *sense,
		Forecaster:           *forecast,
		Workers:              *workers,
		SenseWorkers:         *senseWorkers,
		CheckpointEvery:      *ckEvery,
		CheckpointPath:       *ckPath,
		CheckpointKeep:       *ckKeep,
		Faults:               faults,
		Straggler:            straggler,
		SensorFaults:         sensorFaults,
		Hygiene:              hygieneConfig(*hygiene),
		RepartitionThreshold: *repartThresh,
		AffinityRemap:        *affinityRemap,
		Obs:                  obsRT,
	}, clus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrun:", err)
		os.Exit(1)
	}
	obsRT.SetState("engine", e.Snapshot)
	if *loadCkpt != "" {
		st, loaded, err := checkpoint.LoadFileFallback(*loadCkpt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrun: load checkpoint:", err)
			os.Exit(1)
		}
		if loaded != *loadCkpt {
			fmt.Fprintf(os.Stderr, "amrun: %s unusable, fell back to %s\n", *loadCkpt, loaded)
		}
		if err := e.Restore(st); err != nil {
			fmt.Fprintln(os.Stderr, "amrun: restore:", err)
			os.Exit(1)
		}
		fmt.Printf("restored checkpoint %s (iter %d, t=%.1fs, %d levels)\n",
			loaded, st.Iter, st.VirtualTime, st.Hierarchy.NumLevels())
	}
	tr, err := e.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrun:", err)
		os.Exit(1)
	}
	if err := tr.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amrun:", err)
		os.Exit(1)
	}
	h := e.Hierarchy()
	fmt.Printf("final hierarchy: %d levels, %d boxes, %d total work units\n",
		h.NumLevels(), len(h.AllBoxes()), h.TotalWork())
	if *stats {
		fmt.Print(h.Describe())
	}
	if *saveCkpt != "" {
		st, err := e.Checkpoint(*iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amrun: checkpoint:", err)
			os.Exit(1)
		}
		if err := checkpoint.SaveFile(*saveCkpt, st); err != nil {
			fmt.Fprintln(os.Stderr, "amrun: save checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *saveCkpt)
	}
	if *verbose {
		labels := make([]string, *nodes)
		for k := range labels {
			labels[k] = fmt.Sprintf("P%d", k)
		}
		s := trace.NewSeries("\nper-regrid work assignment", "regrid", labels...)
		for i, rec := range tr.Records {
			s.Add(float64(i+1), rec.Work...)
		}
		if err := s.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "amrun:", err)
			os.Exit(1)
		}
	}
}
