package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/engine"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
)

// Span names. Every layer span is a child of the solve span that was open
// when it started; layer spans never nest in one another.
const (
	spanSolve = iota
	spanStep
	spanMaxDT
	spanPartition
	spanFlags
	spanRegrid
	numSpans
)

var spanNames = [numSpans]string{"solve", "solver.step", "solver.maxdt", "partition", "amr.flags", "amr.regrid"}

// span is one recorded interval. n is the work it covered (cells for a
// kernel call, input boxes for a partition, boxes after a regrid); v is the
// bytes a kernel step moves, computed from array sizes, or a partition's
// max imbalance.
type span struct {
	name       int
	parent     int
	start, end time.Duration
	n          int64
	v          float64
}

// tracer keeps spans in memory for the whole run and writes them at the
// end. Ranks record concurrently, hence the mutex.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	solve int // index of the open solve span
	flops float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), solve: -1} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(name int, start time.Duration, n int64, v float64) {
	t.record(name, start, t.now(), n, v)
}

func (t *tracer) record(name int, start, end time.Duration, n int64, v float64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, t.solve, start, end, n, v})
	t.mu.Unlock()
}

func (t *tracer) openSolve() {
	t.mu.Lock()
	t.solve = len(t.spans)
	t.spans = append(t.spans, span{name: spanSolve, parent: -1, start: t.now()})
	t.mu.Unlock()
}

func (t *tracer) closeSolve() {
	t.mu.Lock()
	t.spans[t.solve].end = t.now()
	t.solve = -1
	t.mu.Unlock()
}

// kernel wraps k. Wrap after solver.Reference, never before: Reference
// looks through to the concrete kernel and would drop the wrapper.
func (t *tracer) kernel(k solver.Kernel) solver.Kernel {
	t.flops = k.FlopsPerCell()
	return &tracedKernel{k, t}
}

type tracedKernel struct {
	solver.Kernel
	t *tracer
}

func (k *tracedKernel) Step(next, cur *amr.Patch, g solver.Grid, dt float64) {
	t0 := k.t.now()
	k.Kernel.Step(next, cur, g, dt)
	end := k.t.now()
	// Bytes moved, computed from array sizes: every field of cur's padded
	// array is read and every field of next's interior written.
	cells := cur.Box.Cells()
	bytes := (cur.Padded().Cells() + cells) * int64(cur.NumFields) * 8
	k.t.record(spanStep, t0, end, cells, float64(bytes))
}

func (k *tracedKernel) MaxDT(p *amr.Patch, g solver.Grid) float64 {
	t0 := k.t.now()
	dt := k.Kernel.MaxDT(p, g)
	k.t.add(spanMaxDT, t0, p.Box.Cells(), 0)
	return dt
}

// partitioner wraps p. The runtimes only special-case
// *partition.Hierarchical (and the Engine's fallback chain checks for
// *partition.Hetero and *partition.Composite after an error), so wrapping
// a Hetero or Composite partitioner keeps the untraced code path.
func (t *tracer) partitioner(p partition.Partitioner) partition.Partitioner {
	return tracedPartitioner{p, t}
}

type tracedPartitioner struct {
	partition.Partitioner
	t *tracer
}

func (p tracedPartitioner) Partition(boxes geom.BoxList, caps []float64, work partition.WorkFunc) (*partition.Assignment, error) {
	t0 := p.t.now()
	a, err := p.Partitioner.Partition(boxes, caps, work)
	imb := 0.0
	if err == nil {
		imb = a.MaxImbalance()
	}
	p.t.add(spanPartition, t0, int64(len(boxes)), imb)
	return a, err
}

// application wraps a. The Engine type-asserts its application for
// WorkerConfigurable and Checkpointer; engine.OracleApp implements
// neither, so the wrapper hides nothing from it.
func (t *tracer) application(a engine.Application) engine.Application {
	return &tracedApp{Application: a, t: t}
}

type tracedApp struct {
	engine.Application
	t         *tracer
	flagsDone time.Duration // end of the last Flags call, 0 once regridded
}

func (a *tracedApp) Flags(h *amr.Hierarchy, iter int) ([]*amr.FlagField, error) {
	t0 := a.t.now()
	f, err := a.Application.Flags(h, iter)
	a.t.add(spanFlags, t0, 0, 0)
	a.flagsDone = a.t.now()
	return f, err
}

// Regridded closes the regrid span that opened when Flags returned. The
// Engine also calls it once before the first Flags; that call has no
// regrid to close.
func (a *tracedApp) Regridded(h *amr.Hierarchy) error {
	if a.flagsDone > 0 {
		end := a.t.now()
		a.t.record(spanRegrid, a.flagsDone, end, int64(len(h.AllBoxes())), 0)
		a.flagsDone = 0
	}
	return a.Application.Regridded(h)
}

// report sets the span-derived per-layer metrics, per traced solve. A
// layer span has no children, so its self time is its duration; the
// solve's own self time, summed over its ranks' timelines, is
// engine.other_s: solve wall × ranks minus the layer time under it.
func (t *tracer) report(m metrics, solves, ranks int) {
	var dur [numSpans]float64
	var calls, work, val [numSpans]float64
	for _, s := range t.spans {
		dur[s.name] += (s.end - s.start).Seconds()
		calls[s.name]++
		work[s.name] += float64(s.n)
		val[s.name] += s.v
	}
	n := float64(solves)
	per := func(x float64) float64 { return x / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m.set("solver.step_s", per(dur[spanStep]))
	m.set("solver.step_calls", per(calls[spanStep]))
	m.set("solver.maxdt_s", per(dur[spanMaxDT]))
	m.set("solver.mcups", ratio(work[spanStep], dur[spanStep])/1e6)
	m.set("solver.flops_per_byte", ratio(t.flops*work[spanStep], val[spanStep]))
	m.set("partition.s", per(dur[spanPartition]))
	m.set("partition.calls", per(calls[spanPartition]))
	m.set("partition.boxes_per_call", ratio(work[spanPartition], calls[spanPartition]))
	m.set("partition.max_imbalance", ratio(val[spanPartition], calls[spanPartition]))
	m.set("amr.flags_s", per(dur[spanFlags]))
	m.set("amr.regrid_s", per(dur[spanRegrid]))
	m.set("amr.regrids", per(calls[spanRegrid]))
	m.set("amr.boxes", ratio(work[spanRegrid], calls[spanRegrid]))
	layer := dur[spanStep] + dur[spanMaxDT] + dur[spanPartition] + dur[spanFlags] + dur[spanRegrid]
	m.set("engine.other_s", per(dur[spanSolve]*float64(ranks)-layer))
}

// write dumps the spans of the last traced solve, one JSON object per
// line; a whole run of the 1024-box workload would be a hundred megabytes.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	last := 0
	for i, s := range t.spans {
		if s.name == spanSolve {
			last = i
		}
	}
	for i := last; i < len(t.spans); i++ {
		s := t.spans[i]
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"n":%d}`+"\n",
			i, spanNames[s.name], s.parent, s.start.Nanoseconds(), s.end.Nanoseconds(), s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
