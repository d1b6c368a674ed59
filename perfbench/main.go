// Command perfbench is the repository benchmark. It runs repeated canonical
// solves of one workload for a fixed time, checks every solve's output
// against an exact oracle, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer breakdown of a traced run) as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload spmd-euler3d-tcp --seed 1 --seconds 30 --trace 0
//
// The program is reached only through its public entry points
// (transport.NewGroup/NewTCPGroup, engine.RunSPMDRank, engine.New/Run) and
// the solver.Kernel, partition.Partitioner and engine.Application
// interfaces, which the traced run wraps from here; nothing inside the
// program is instrumented.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupRuns is how many times a run sets the workload up from scratch;
	// setup_s is their median.
	setupRuns = 3
	// minSolves keeps measuring past the deadline until the tail percentile
	// has ten samples beyond it.
	minSolves = 11
)

// workload is one benchmark input set. The constructor generates the inputs
// from the seed and computes the oracle; none of that is timed.
type workload interface {
	// setUp builds what a solve needs (transport group or virtual cluster)
	// and runs one cold, checked solve. setup_s times it.
	setUp() error
	// solve runs one timed solve, with the layers wrapped when tr is
	// non-nil, and checks its output.
	solve(tr *tracer) (sample, error)
	// iters is the number of coarse iterations of one solve.
	iters() int
	// ranks is the number of concurrent timelines a solve runs on.
	ranks() int
	// virtualExecS is the paper's execution-time model applied to the
	// last solve.
	virtualExecS() float64
	// layers adds the workload's per-layer metrics that do not come from
	// the spans: result counters and standalone layer measurements.
	layers(m metrics, untraced []sample) error
	close() error
}

var workloads = map[string]func(seed int64, work string) (workload, error){
	"spmd-euler3d-tcp":   newEuler3DTCP,
	"spmd-advect2d-chan": newAdvect2DChan,
	"paper-rm3d":         newPaperRM3D,
}

// sample is one timed solve: wall time plus the runtime.MemStats deltas
// across it.
type sample struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

// begin starts timing a solve from the outside and returns the function
// that ends it, with the allocator and GC activity in between. With a
// tracer it also opens the solve span.
func begin(tr *tracer) func() sample {
	if tr != nil {
		tr.openSolve()
	}
	var a runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	return func() sample {
		wall := time.Since(t0)
		var b runtime.MemStats
		runtime.ReadMemStats(&b)
		if tr != nil {
			tr.closeSolve()
		}
		return sample{
			wall:    wall,
			mallocs: b.Mallocs - a.Mallocs,
			bytes:   b.TotalAlloc - a.TotalAlloc,
			gcs:     b.NumGC - a.NumGC,
			pauseNs: b.PauseTotalNs - a.PauseTotalNs,
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) { m[name] = metric{v, units[name]} }

// endToEnd and perLayer name the metrics a run reports with -trace 0 and
// -trace 1; units gives each its unit. BENCHMARK.json lists the same.
var (
	endToEnd = []string{"setup_s", "solve_s_p50", "solve_s_tail", "iters_per_s",
		"allocs_per_iter", "alloc_mb_per_iter", "virtual_exec_s"}
	perLayer = []string{
		"solver.step_s", "solver.step_calls", "solver.maxdt_s", "solver.mcups", "solver.flops_per_byte",
		"partition.s", "partition.calls", "partition.boxes_per_call", "partition.max_imbalance",
		"amr.flags_s", "amr.regrid_s", "amr.regrids", "amr.boxes",
		"monitor.sense_s",
		"transport.msgs_per_iter", "transport.bytes_per_iter", "transport.allreduce_us", "transport.bcast_us", "transport.bw_gbps",
		"engine.other_s", "engine.repartitions", "engine.migrated_mb", "engine.retained_frac",
		"engine.boundary_step_frac", "engine.serial_solve_s", "engine.parallel_efficiency",
		"checkpoint.shards", "checkpoint.mb",
		"runtime.gc_cycles_per_iter", "runtime.gc_pause_ms",
		"cluster.virtual_compute_s", "cluster.virtual_sense_s", "cluster.moved_mb",
		"bench.trace_overhead",
	}
	units = map[string]string{
		"setup_s":                    "s",
		"solve_s_p50":                "s",
		"solve_s_tail":               "s",
		"iters_per_s":                "1/s",
		"allocs_per_iter":            "count",
		"alloc_mb_per_iter":          "MB",
		"virtual_exec_s":             "s",
		"solver.step_s":              "s",
		"solver.step_calls":          "count",
		"solver.maxdt_s":             "s",
		"solver.mcups":               "Mcell/s",
		"solver.flops_per_byte":      "flop/B",
		"partition.s":                "s",
		"partition.calls":            "count",
		"partition.boxes_per_call":   "count",
		"partition.max_imbalance":    "%",
		"amr.flags_s":                "s",
		"amr.regrid_s":               "s",
		"amr.regrids":                "count",
		"amr.boxes":                  "count",
		"monitor.sense_s":            "s",
		"transport.msgs_per_iter":    "count",
		"transport.bytes_per_iter":   "B",
		"transport.allreduce_us":     "us",
		"transport.bcast_us":         "us",
		"transport.bw_gbps":          "GB/s",
		"engine.other_s":             "s",
		"engine.repartitions":        "count",
		"engine.migrated_mb":         "MB",
		"engine.retained_frac":       "ratio",
		"engine.boundary_step_frac":  "ratio",
		"engine.serial_solve_s":      "s",
		"engine.parallel_efficiency": "ratio",
		"checkpoint.shards":          "count",
		"checkpoint.mb":              "MB",
		"runtime.gc_cycles_per_iter": "count",
		"runtime.gc_pause_ms":        "ms",
		"cluster.virtual_compute_s":  "s",
		"cluster.virtual_sense_s":    "s",
		"cluster.moved_mb":           "MB",
		"bench.trace_overhead":       "ratio",
	}
)

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench/work", "scratch directory for checkpoints and span logs")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0|1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	printHost()

	w, err := mk(*seed, *work)
	if err != nil {
		return fmt.Errorf("prepare %s: %w", *name, err)
	}
	setups := make([]float64, setupRuns)
	for i := range setups {
		if i > 0 {
			if err := w.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer w.close()

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	res := result{Correct: true, Metrics: metrics{}}
	var untraced, tracedS []sample
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	need := minSolves
	if tr != nil {
		need = 3 // a traced run reports medians only, no tail
	}
	for time.Now().Before(deadline) || len(untraced) < need || (tr != nil && len(tracedS) < need) {
		// A traced run alternates traced and untraced solves so the
		// overhead ratio compares solves made under the same conditions.
		useTr := tr != nil && len(tracedS) < len(untraced)
		var t *tracer
		if useTr {
			t = tr
		}
		s, err := w.solve(t)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			// A failed solve can leave messages in flight, so later solves
			// on the same group would measure the wreckage: stop here.
			fmt.Fprintf(os.Stderr, "solve %d: %v\n", res.Attempted, err)
			break
		}
		if useTr {
			tracedS = append(tracedS, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	if len(untraced) == 0 || (tr != nil && len(tracedS) == 0) {
		return errors.New("no solve succeeded")
	}
	fmt.Printf("workload %s seed %d: %d solves attempted, %d failed, failed_frac %g\n",
		*name, *seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))

	ws := walls(untraced)
	p50 := median(ws)
	if tr == nil {
		tail, pct := tailPercentile(ws)
		fmt.Printf("solve_s_tail is p%.0f of %d solves (10 beyond it)\n", pct, len(ws))
		var iters, mallocs, bytes float64
		for _, s := range untraced {
			iters += float64(w.iters())
			mallocs += float64(s.mallocs)
			bytes += float64(s.bytes)
		}
		m := res.Metrics
		m.set("setup_s", median(setups))
		m.set("solve_s_p50", p50)
		m.set("solve_s_tail", tail)
		m.set("iters_per_s", iters/sum(ws))
		m.set("allocs_per_iter", mallocs/iters)
		m.set("alloc_mb_per_iter", bytes/1e6/iters)
		m.set("virtual_exec_s", w.virtualExecS())
	} else {
		tp50 := median(walls(tracedS))
		tr.report(res.Metrics, len(tracedS), w.ranks())
		fmt.Println("solver.flops_per_byte is computed from patch array sizes, not measured; no roofline ratio is reported")
		if err := w.layers(res.Metrics, untraced); err != nil {
			return err
		}
		var gcs, pause float64
		for _, s := range untraced {
			gcs += float64(s.gcs)
			pause += float64(s.pauseNs)
		}
		n := float64(len(untraced))
		res.Metrics.set("runtime.gc_cycles_per_iter", gcs/n/float64(w.iters()))
		res.Metrics.set("runtime.gc_pause_ms", pause/1e6/n)
		res.Metrics.set("bench.trace_overhead", tp50/p50-1)
		if err := tr.write(fmt.Sprintf("%s/spans-%s.jsonl", *work, *name)); err != nil {
			return err
		}
	}
	want := endToEnd
	if tr != nil {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s not reported", name)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printHost records the machine the numbers come from.
func printHost() {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(host) // a map of strings and ints always encodes
	fmt.Println("host", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest order statistic with ten samples
// beyond it and the percentile it sits at.
func tailPercentile(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], math.Floor(100 * float64(i+1) / float64(len(s)))
}
