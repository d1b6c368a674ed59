package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Phase is the span taxonomy: the runtime activities whose wall time the
// observability layer breaks down. Each phase has one samr_phase_seconds
// histogram, and its String is the "ph" field of span records. The order
// follows the paper's loop (sense, partition, redistribute) and then one
// SPMD iteration (pack, compute, halo-wait, unpack, advance, dt-wait).
type Phase uint8

const (
	// PhaseSense is a monitor sensing sweep.
	PhaseSense Phase = iota
	// PhasePartition is a partitioner invocation (including validation,
	// fallbacks and, in SPMD runs, the group-local gather).
	PhasePartition
	// PhaseRemap is the engine's movement-aware owner relabeling.
	PhaseRemap
	// PhasePlan is communication-plan construction: ghost-exchange and
	// migration plans derived from the shared assignment.
	PhasePlan
	// PhaseMigrate is redistribution work other than packing and waiting:
	// retained-patch copies and allocation of incoming patches.
	PhaseMigrate
	// PhaseMigWait is time blocked on one peer's migration frame.
	PhaseMigWait
	// PhasePack is packing one peer's halo or migration frame.
	PhasePack
	// PhaseCompute is patch integration: interior patches in SPMD runs, the
	// whole hierarchy advance in the engine.
	PhaseCompute
	// PhaseHaloWait is time blocked on one peer's ghost-region frame.
	PhaseHaloWait
	// PhaseUnpack is applying one received frame.
	PhaseUnpack
	// PhaseAdvance is the SPMD boundary-patch steps after the halo arrived.
	PhaseAdvance
	// PhaseDtWait is the global dt agreement.
	PhaseDtWait
	// PhaseCheckpoint is the synchronous part of writing a checkpoint.
	PhaseCheckpoint
	// NumPhases bounds the taxonomy.
	NumPhases
)

// PhaseIdle and PhaseUntracked name critical-path time the stitcher
// synthesizes where no span was recorded. They are never recorded.
const (
	PhaseIdle      = "idle"
	PhaseUntracked = "untracked"
)

// phaseNames indexes Phase.String.
var phaseNames = [NumPhases]string{
	"sense", "partition", "remap", "plan", "migrate", "mig-wait", "pack",
	"compute", "halo-wait", "unpack", "advance", "dt-wait", "checkpoint",
}

// String returns the phase's wire name (the metric label and the span
// record's "ph" field).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Phases lists the taxonomy in order, for reports.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Config configures a Runtime.
type Config struct {
	// Seed derives the run ID deterministically; 0 seeds from the wall
	// clock, so unrelated runs get distinct IDs.
	Seed int64
	// Trace, when non-nil, receives the JSONL span log: one record per
	// span plus the message, clock-offset and straggler-verdict records
	// that cmd/tracepath stitches. It also switches on the wire trace
	// context and the heartbeat clock stamps.
	Trace io.Writer
}

// Runtime bundles one run's observability: the metrics registry, the
// per-phase wall-time histograms, the span log, and the state providers
// behind the /state endpoint. The nil runtime disables everything: its
// recorders are nil, handles discard updates, and results are
// bit-identical to an uninstrumented run.
type Runtime struct {
	reg   *Registry
	log   *spanLog
	runID string
	start time.Time
	phase [NumPhases]*Histogram

	mu    sync.Mutex
	state map[string]func() any
}

// New builds a runtime with a fresh registry and, when cfg.Trace is set,
// a span log.
func New(cfg Config) *Runtime {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt := &Runtime{
		reg:   NewRegistry(),
		runID: RunID(seed),
		start: time.Now(),
		state: map[string]func() any{},
	}
	if cfg.Trace != nil {
		rt.log = newSpanLog(cfg.Trace)
	}
	for p := Phase(0); p < NumPhases; p++ {
		rt.phase[p] = rt.reg.Histogram("samr_phase_seconds",
			"Wall time per runtime phase.", DurationBuckets(),
			Label{"phase", p.String()})
	}
	return rt
}

// RunID derives a stable run identifier from a seed (splitmix64), so runs
// seeded identically report the same ID on /healthz and /state.
func RunID(seed int64) string {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("run-%016x", z)
}

// Registry exposes the metrics registry (nil on the nil runtime, which
// makes every registration return a nil, update-discarding handle).
func (rt *Runtime) Registry() *Registry {
	if rt == nil {
		return nil
	}
	return rt.reg
}

// RunIDString returns the runtime's run ID ("" on the nil runtime).
func (rt *Runtime) RunIDString() string {
	if rt == nil {
		return ""
	}
	return rt.runID
}

// Uptime is the wall time since New (0 on the nil runtime).
func (rt *Runtime) Uptime() time.Duration {
	if rt == nil {
		return 0
	}
	return time.Since(rt.start)
}

// Recorder returns rank's recording handle; the single-process engine
// uses rank -1. The nil runtime yields the nil recorder, on which every
// method is a no-op.
func (rt *Runtime) Recorder(rank int) *Recorder {
	if rt == nil {
		return nil
	}
	r := &Recorder{phase: &rt.phase, log: rt.log, rank: int32(rank)}
	if rt.log != nil {
		r.lastDelta = make(map[int32]int64)
	}
	return r
}

// PhaseHistogram exposes one phase's histogram (nil on the nil runtime).
func (rt *Runtime) PhaseHistogram(p Phase) *Histogram {
	if rt == nil || p >= NumPhases {
		return nil
	}
	return rt.phase[p]
}

// Flush drains the span log and reports its first write error (nil on the
// nil runtime or without a log).
func (rt *Runtime) Flush() error {
	if rt == nil {
		return nil
	}
	return rt.log.Flush()
}

// SetState registers a named snapshot provider for the /state endpoint.
// The function must be safe for concurrent use; it is called at scrape
// time.
func (rt *Runtime) SetState(name string, f func() any) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.state[name] = f
}

// stateSnapshot materializes every registered provider.
func (rt *Runtime) stateSnapshot() map[string]any {
	rt.mu.Lock()
	fs := make(map[string]func() any, len(rt.state))
	for k, f := range rt.state {
		fs[k] = f
	}
	rt.mu.Unlock()
	out := make(map[string]any, len(fs))
	for k, f := range fs {
		out[k] = f()
	}
	return out
}
