package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/checkpoint"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/obs/trace"
	"samrpart/internal/partition"
	"samrpart/internal/transport"
)

// DefaultRecvDeadline bounds blocking receives when SPMDConfig.RecvDeadline
// is unset. It is deliberately generous: it exists to turn a hung cluster
// into a diagnosable ErrRankDown, not to race healthy ranks.
const DefaultRecvDeadline = 30 * time.Second

// DefaultRejoinDeadline bounds how long a restarted rank waits for the
// survivors' welcome before giving up on re-admission.
const DefaultRejoinDeadline = 10 * time.Second

// rejoinPollEvery is the announce/welcome polling interval of the rejoin
// handshake. It only bounds handshake latency, never correctness.
const rejoinPollEvery = 2 * time.Millisecond

// Fixed rejoin handshake tags. They are deliberately epoch-free: a restarted
// rank cannot know the survivors' current epoch, and survivors only consume
// announces from ranks they already agreed are dead, so stale traffic cannot
// be confused with live protocol messages.
const (
	tagRejoinAnnounce = "rejoin-announce"
	tagRejoinWelcome  = "rejoin-welcome"
)

// FTConfig enables and tunes fault tolerance for RunSPMDRank: the hooks it
// switches on — heartbeat detection and agreement, checkpoint writes, and the
// straggler gossip — cost nothing when it is off.
//
// Failure model: a rank crashes at an iteration boundary — it goes silent
// before sending its heartbeat for iteration k (transport.Faulty's Kill and
// the engine's fault schedule both inject exactly this). Every survivor's
// heartbeat receive from the dead rank then times out in the same round, so
// detection is deterministic and collective. Mid-iteration communication
// failures (a peer dying with ghost messages half-exchanged) are NOT
// recovered: they surface as an ErrRankDown error from the run, failing fast
// rather than risking a torn state.
type FTConfig struct {
	// Enabled turns the fault-tolerance hooks on.
	Enabled bool
	// HeartbeatEvery runs failure detection every N iterations (default 1).
	// Heartbeats are collective: they also act as the agreement step that
	// keeps every survivor's dead-rank set identical.
	HeartbeatEvery int
	// CheckpointEvery writes a distributed checkpoint (one shard per rank in
	// CheckpointDir) every N iterations. 0 disables checkpointing — recovery
	// then restarts from initial conditions.
	CheckpointEvery int
	// CheckpointDir is the shared directory holding per-rank shards. Every
	// rank must see the same filesystem (in-process groups trivially do; a
	// real deployment uses a shared mount, as GrACE-era clusters did).
	CheckpointDir string
	// CheckpointKeep, when > 0, retains only that many checkpoint epochs per
	// rank at or below the agreed stable point, pruning older shards after
	// each write. Epochs above the stable point are never pruned — they are
	// what the stable point advances into. 0 keeps everything.
	CheckpointKeep int
	// SyncCheckpoint blocks the step loop until the shard is durable instead
	// of writing asynchronously. Deterministic tests use this so the set of
	// restorable iterations is exact.
	SyncCheckpoint bool
	// ResumeFrom, when > 0, loads the iteration's shards from CheckpointDir
	// at startup instead of calling Kernel.Init — a cold restart of a
	// previously checkpointed run. If the shards turn out corrupt, startup
	// falls back to the newest intact earlier epoch (counted in
	// SPMDResult.CkptFallbacks), re-initializing when none survives.
	ResumeFrom int
	// MaxRecoveries bounds how many rank failures a run will absorb before
	// giving up (default 3; -1 = unlimited). Re-admissions do not count.
	MaxRecoveries int
	// RejoinDeadline bounds how long a restarted rank waits for the
	// survivors' welcome (default DefaultRejoinDeadline).
	RejoinDeadline time.Duration
}

func (c FTConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.HeartbeatEvery < 0 || c.CheckpointEvery < 0 {
		return fmt.Errorf("engine: negative FT interval")
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("engine: CheckpointEvery set without CheckpointDir")
	}
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("engine: negative CheckpointKeep")
	}
	if c.ResumeFrom < 0 {
		return fmt.Errorf("engine: negative ResumeFrom")
	}
	if c.ResumeFrom > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("engine: ResumeFrom set without CheckpointDir")
	}
	if c.RejoinDeadline < 0 {
		return fmt.Errorf("engine: negative RejoinDeadline")
	}
	return nil
}

// killEndpoint crashes the rank's endpoint through transport.Killer.
func killEndpoint(ep transport.Endpoint) error {
	k, ok := ep.(transport.Killer)
	if !ok {
		return fmt.Errorf("engine: crash injection requires a transport.Killer endpoint (wrap it in transport.Faulty)")
	}
	k.Kill()
	return nil
}

// welcomeMsg is the survivors' re-admission grant: everything a restarted
// rank needs to re-enter the collective at an iteration boundary. Boxes and
// Owners describe the STANDING assignment (pre-admission); immediately after
// adopting it, both sides run the identical admission repartition, with the
// joiner as a pure receiver.
type welcomeMsg struct {
	// Iter is the iteration the admission happened at; the joiner resumes
	// the step loop there, skipping the control phase it was admitted in.
	Iter int
	// Epoch is the post-admission tag epoch every member now uses.
	Epoch int
	// Stable is the collective restore point. The joiner adopts it as its
	// own durable mark — its pre-crash shards at Stable are on disk (the
	// stable point is the minimum durable iteration ALL ranks advertised),
	// and advertising anything older would drag the collective backwards.
	Stable int
	// Alive is the post-admission membership, joiners included.
	Alive []bool
	// Boxes/Owners are the standing assignment the admission repartition
	// starts from.
	Boxes  geom.BoxList
	Owners []int
}

// spmdRun is the mutable state of one SPMD rank.
type spmdRun struct {
	cfg  SPMDConfig
	ep   transport.TimedEndpoint
	res  *SPMDResult
	data time.Duration // data-plane receive deadline (dt reduce, ghosts)
	ctrl time.Duration // control-plane deadline (heartbeats, admission)

	// tiles is the fixed decomposition every repartition distributes,
	// computed once per run.
	tiles geom.BoxList

	alive    []bool
	epoch    int // bumped per recovery/admission; namespaces all tags
	lastPart int // iteration of the last (re)partition

	// pendingJoin is the sticky set of dead ranks whose rejoin announce has
	// been seen (locally or via a peer's heartbeat). It survives dirty
	// rounds and is drained only when a clean round admits its members.
	pendingJoin map[int]bool

	// faultFired marks schedule events already executed, so a rollback
	// replaying the crash iteration does not re-fire the crash.
	faultFired []bool

	// strag is this rank's replica of the shared straggler detector. Every
	// rank feeds it the identical heartbeat-gossiped timing vector on clean
	// rounds only, so all replicas transition in lockstep and shedding
	// needs no extra agreement round.
	strag *monitor.StragglerDetector
	// stepPS is the rank's latest per-cell step time (picoseconds),
	// piggybacked on the next heartbeat. 0 = no sample yet.
	stepPS int64
	// canaryCur/canaryNext are the private probe patch of a workless rank
	// (see canaryProbe).
	canaryCur, canaryNext *amr.Patch

	assign  *asnView
	plan    *ghostPlan
	patches map[geom.Box]*amr.Patch
	spares  map[geom.Box]*amr.Patch
	// sc pools the communication buffers across steps, plan rebuilds and
	// redistributions (see commScratch).
	sc commScratch

	// stable is the restore point every participant agreed on at the last
	// clean heartbeat: the minimum durable checkpoint advertised by ALL
	// ranks alive in that round. Updating it only on clean rounds guarantees
	// a rank that dies later has its shards on disk at `stable`.
	stable int

	ckptMu  sync.Mutex
	ckptWG  sync.WaitGroup
	durable int // latest shard known written (guarded by ckptMu)
	ckptErr error
}

// newSPMDRun validates the configuration against the group and builds the
// per-rank runner state (everything alive, epoch 0). With FT off the
// fault-tolerance settings are cleared, so every FT hook stays off.
func newSPMDRun(ep transport.Endpoint, cfg SPMDConfig) (*spmdRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(ep.Size()); err != nil {
		return nil, err
	}
	ted, ok := ep.(transport.TimedEndpoint)
	if !ok {
		return nil, fmt.Errorf("engine: spmd runs require a transport.TimedEndpoint")
	}
	// Bound every blocking receive, so a silently-dead peer yields
	// transport.ErrRankDown within the deadline instead of hanging the rank.
	ted.SetDeadline(cfg.recvDeadline())
	if !cfg.FT.Enabled {
		cfg.FT = FTConfig{}
	}
	r := &spmdRun{
		cfg: cfg, ep: ted,
		res:         &SPMDResult{Rank: ep.Rank(), RestoredFrom: -1},
		data:        cfg.recvDeadline(),
		ctrl:        cfg.controlDeadline(),
		tiles:       cfg.tiles(),
		alive:       make([]bool, ep.Size()),
		pendingJoin: map[int]bool{},
		faultFired:  make([]bool, len(cfg.Faults)),
	}
	r.sc.om = newSPMDObs(cfg.Obs, ep.Rank())
	r.sc.tr = cfg.Trace.Recorder(ep.Rank())
	r.sc.workers = cfg.Workers
	for i := range r.alive {
		r.alive[i] = true
	}
	r.resetStraggler()
	return r, nil
}

// RunSPMDRank executes one rank of the SPMD program. Every rank must call
// it with the same config and its own endpoint. No rank coordinates: every
// partitioning decision is replicated from shared inputs, and only the
// hierarchical partitioner's group-local stage 2 gathers segments at the
// lowest live rank, which sends the assignment back.
//
// The step loop overlaps computation with communication: ghost sends are
// posted first, then patches whose halos are fully local ("interior"
// patches) advance while remote halo regions are still in flight; the rank
// only blocks on receives before advancing its "boundary" patches. The
// split changes scheduling only — every patch still steps with a complete
// halo — so the result stays bit-exact with serial execution. FT.Enabled
// adds heartbeat detection, agreement on the dead set, checkpoint-based
// rollback recovery and rank re-admission to the same loop.
func RunSPMDRank(ep transport.Endpoint, cfg SPMDConfig) (*SPMDResult, error) {
	r, err := newSPMDRun(ep, cfg)
	if err != nil {
		return nil, err
	}
	actual, err := r.setup(r.cfg.FT.ResumeFrom)
	if err != nil {
		return nil, err
	}
	r.stable, r.durable = actual, actual
	return r.loop(actual, false)
}

// RejoinSPMDRank re-enters a previously crashed rank into a running SPMD
// group: it announces itself to every peer, waits for the survivors'
// welcome (granted at the next clean heartbeat after they agreed the rank
// was dead), adopts the collective state it carries, receives its share of
// the admission repartition, and runs the remaining iterations as a full
// member. The caller is the restarted process; ep must be the same rank
// slot the crashed process held and implement transport.TimedEndpoint and
// transport.Poller (transport.Faulty over the built-in transports does).
func RejoinSPMDRank(ep transport.Endpoint, cfg SPMDConfig) (*SPMDResult, error) {
	if !cfg.FT.Enabled {
		return nil, fmt.Errorf("engine: rejoin requires FT.Enabled")
	}
	r, err := newSPMDRun(ep, cfg)
	if err != nil {
		return nil, err
	}
	w, err := r.rejoin()
	if err != nil {
		return nil, err
	}
	r.res.Rejoined = true
	return r.loop(w.Iter, true)
}

// loop runs the step loop from start. skipCtl skips the fault/heartbeat
// control phase of the FIRST iteration only: a just-admitted rank was
// implicitly part of the round that admitted it, so it must go straight to
// the checkpoint/step half the survivors are about to execute.
func (r *spmdRun) loop(start int, skipCtl bool) (*SPMDResult, error) {
	cfg, res := r.cfg, r.res
	hbEvery := cfg.FT.HeartbeatEvery
	if hbEvery < 1 {
		hbEvery = 1
	}
	maxRec := cfg.FT.MaxRecoveries
	if maxRec == 0 {
		maxRec = 3
	}
	for iter := start; iter < cfg.Iterations; {
		if !skipCtl {
			if ev := r.faultAt(iter); ev != nil {
				if err := killEndpoint(r.ep); err != nil {
					return nil, err
				}
				// A pause is a gray failure: the rank goes silent at the
				// boundary (peers will declare it dead and recover) and
				// immediately asks back in. A crash with a scheduled rejoin
				// models the process being restarted; without one it is
				// fail-stop.
				if ev.Kind == FaultCrash && !r.rejoinScheduled(iter) {
					res.Crashed = true
					r.ckptWG.Wait()
					return res, nil
				}
				w, err := r.rejoin()
				if err != nil {
					return nil, err
				}
				res.Rejoined = true
				iter = w.Iter
				skipCtl = true
				continue
			}
			if cfg.FT.Enabled && iter%hbEvery == 0 {
				newDead, joins, err := r.heartbeat(iter)
				if err != nil {
					return nil, err
				}
				if len(newDead) > 0 {
					if maxRec >= 0 && res.Recoveries >= maxRec {
						return nil, fmt.Errorf("engine: rank %d: giving up after %d recoveries (lost %v)",
							r.me(), res.Recoveries, newDead)
					}
					actual, err := r.recoverAt(r.stable)
					if err != nil {
						return nil, err
					}
					res.Recoveries++
					res.RestoredFrom = actual
					iter = actual
					continue
				}
				if len(joins) > 0 {
					if err := r.admit(iter, joins); err != nil {
						return nil, err
					}
				}
			}
		}
		skipCtl = false
		if cfg.FT.CheckpointEvery > 0 && iter > 0 && iter%cfg.FT.CheckpointEvery == 0 {
			if err := r.writeCheckpoint(iter); err != nil {
				return nil, err
			}
		}
		if err := r.step(iter); err != nil {
			return nil, err
		}
		iter++
	}
	r.ckptWG.Wait()
	r.ckptMu.Lock()
	ckptErr := r.ckptErr
	r.ckptMu.Unlock()
	if ckptErr != nil {
		return nil, fmt.Errorf("engine: async checkpoint failed: %w", ckptErr)
	}
	for rank, a := range r.alive {
		if !a {
			res.DeadRanks = append(res.DeadRanks, rank)
		}
	}
	finalizeSPMD(res, r.patches)
	r.sc.om.sync(res)
	return res, nil
}

func (r *spmdRun) me() int { return r.ep.Rank() }

// prefix namespaces all tags of the current epoch, so messages from before a
// rollback or admission can never be mistaken for the replay's.
func (r *spmdRun) prefix() string { return fmt.Sprintf("e%d-", r.epoch) }

// faultAt returns the crash/pause schedule event firing for this rank at
// iter, at most once per event: after a rejoin the rollback replays the
// crash iteration, and the fault must not re-fire on the replay.
func (r *spmdRun) faultAt(iter int) *FaultEvent {
	me := r.me()
	for i := range r.cfg.Faults {
		ev := &r.cfg.Faults[i]
		if r.faultFired[i] || ev.Rank != me || ev.Iter != iter {
			continue
		}
		if ev.Kind != FaultCrash && ev.Kind != FaultPause {
			continue
		}
		r.faultFired[i] = true
		return ev
	}
	return nil
}

// rejoinScheduled reports whether the schedule rejoins this rank after a
// crash at the given iteration. The rejoin's own Iter is honored only as an
// ordering constraint at the SPMD level: the restarted process announces
// immediately and the survivors admit it at their next clean heartbeat.
func (r *spmdRun) rejoinScheduled(after int) bool {
	for _, ev := range r.cfg.Faults {
		if ev.Kind == FaultRejoin && ev.Rank == r.me() && ev.Iter > after {
			return true
		}
	}
	return false
}

// slowFactor returns the compute dilation the schedule applies to this rank
// at iter (1 = none).
func (r *spmdRun) slowFactor(iter int) float64 {
	f := 1.0
	for _, ev := range r.cfg.Faults {
		if ev.Kind == FaultSlow && ev.Rank == r.me() && ev.Iter <= iter && iter < ev.Until && ev.Factor > f {
			f = ev.Factor
		}
	}
	return f
}

// resetStraggler (re)creates the detector replica. Admission resets it on
// every member: the joiner has no EWMA history, and replicas must stay
// identical for shedding decisions to agree without coordination. Without
// FT there is no heartbeat gossip to feed it, so there is no replica.
func (r *spmdRun) resetStraggler() {
	if r.cfg.FT.Enabled && r.cfg.Straggler.Enabled {
		r.strag = monitor.NewStragglerDetector(r.ep.Size(), r.cfg.Straggler)
	}
}

// eligibleCaps computes the capacity vector and work-eligibility mask for a
// repartition: quarantined ranks stay members but receive zero work, and
// shed ranks keep a demoted capacity share. Every input is replicated state
// (caps, alive, detector), so all ranks derive identical vectors.
func (r *spmdRun) eligibleCaps(iter int) (caps []float64, mask []bool) {
	caps = append([]float64(nil), r.cfg.CapsAt(iter)...)
	mask = r.alive
	if r.strag != nil {
		elig := make([]bool, len(r.alive))
		any := false
		for k := range elig {
			elig[k] = r.alive[k] && r.strag.WorkEligible(k)
			any = any || elig[k]
		}
		if any { // all-quarantined guard: fall back to plain membership
			mask = elig
		}
		sum := 0.0
		for k := range caps {
			if f := r.strag.CapacityFactor(k); f < 1 {
				caps[k] *= f
				if caps[k] < 1e-3 {
					caps[k] = 1e-3
				}
			}
			sum += caps[k]
		}
		if sum > 0 {
			for k := range caps {
				caps[k] /= sum
			}
		}
	}
	return caps, mask
}

// partitionEligible partitions the tiles over the live, non-quarantined
// membership, fully replicated: every rank computes the identical assignment
// from shared state with zero messages. Recovery paths (setup, recoverAt)
// must use this form — they run when the group is not known to be
// synchronized, so they may not communicate.
func (r *spmdRun) partitionEligible(iter int) (*partition.Assignment, error) {
	caps, mask := r.eligibleCaps(iter)
	return partition.PartitionAlive(r.cfg.Partitioner, r.tiles, caps, mask, partition.CellWork)
}

// remap relabels a fresh assignment for movement affinity against the
// standing one (unless NoAffinityRemap). RemapOwners is a pure function of
// the two assignments, so replicated inputs give replicated labels.
func (r *spmdRun) remap(a *partition.Assignment) *partition.Assignment {
	if r.cfg.NoAffinityRemap {
		return a
	}
	return partition.RemapOwners(r.assign.Assignment, a)
}

// partitionEligibleGroupLocal is partitionEligible with stage 2 computed
// group-locally: each eligible rank computes the replicated stage-1 plan
// over the compacted (alive, non-quarantined) capacity vector but slices
// only its own group's segment; group leaders ship segments to the lowest
// alive rank (the root), which assembles, re-expands to global node ids and
// relabels for movement affinity — only the root holds the partitioner's
// Ideal vector RemapOwners needs. The root then sends the result to every
// other alive rank in the assignment wire form (owner deltas against the
// standing assignment when the tiling held), and every rank, the root
// included, rebuilds its view from that wire form. CompactAlive/ExpandAlive
// and GroupPlan.Assemble are exactly the pieces PartitionAlive composes, so
// the result is bit-identical to the replicated path. Quarantined ranks own
// no compact slot and participate as pure receivers. Only repartitionNow may
// call this — all alive ranks enter it synchronously — never the recovery
// paths, which must stay communication-free. Sends are control-plane: bytes
// counted, message counters untouched.
func (r *spmdRun) partitionEligibleGroupLocal(h *partition.Hierarchical, iter int) (*asnView, error) {
	asn, err := r.gatherSegments(h, iter)
	if err != nil {
		return nil, err
	}
	return r.shareAssignment(asn, iter)
}

// root is the lowest alive rank: the stage-2 gather's root and the host
// that welcomes joiners.
func (r *spmdRun) root() int {
	for p, a := range r.alive {
		if a {
			return p
		}
	}
	return -1
}

// gatherSegments is the segment half of the group-local stage 2: it returns
// the assembled assignment, in global node ids, on the root and nil on
// every other rank.
func (r *spmdRun) gatherSegments(h *partition.Hierarchical, iter int) (*partition.Assignment, error) {
	caps, mask := r.eligibleCaps(iter)
	compact, global, err := partition.CompactAlive(caps, mask)
	if err != nil {
		return nil, err
	}
	plan, err := h.PlanGroups(r.tiles, compact, partition.CellWork)
	if err != nil {
		return nil, err
	}
	me, root := r.me(), r.root()
	globalOf := func(ci int) int {
		if global == nil {
			return ci
		}
		return global[ci]
	}
	myCompact := -1
	if global == nil {
		myCompact = me
	} else {
		for ci, gk := range global {
			if gk == me {
				myCompact = ci
				break
			}
		}
	}
	segTag := r.prefix() + fmt.Sprintf("s2seg-%d", iter)
	var mySeg partition.GroupSegment
	if myCompact >= 0 {
		g := plan.GroupOf(myCompact)
		boxes, owners := plan.PartitionGroup(g)
		mySeg = partition.GroupSegment{Boxes: boxes, Owners: owners}
		if leader := globalOf(plan.Members[g][0]); leader == me && me != root {
			payload, err := transport.EncodeGob(mySeg)
			if err != nil {
				return nil, err
			}
			if err := r.ep.Send(root, segTag, payload); err != nil {
				return nil, err
			}
			r.res.BytesSent += int64(len(payload))
		}
	}
	if me != root {
		return nil, nil
	}
	segs := make([]partition.GroupSegment, plan.NumGroups())
	for gi := range segs {
		leader := globalOf(plan.Members[gi][0])
		if leader == me {
			segs[gi] = mySeg
			continue
		}
		payload, err := r.ep.Recv(leader, segTag)
		if err != nil {
			return nil, err
		}
		var s partition.GroupSegment
		if err := transport.DecodeGob(payload, &s); err != nil {
			return nil, err
		}
		segs[gi] = s
	}
	asn, err := plan.Assemble(segs)
	if err != nil {
		return nil, err
	}
	if global != nil {
		asn = partition.ExpandAlive(asn, global, len(caps))
	}
	return asn, nil
}

// shareAssignment is the distribution half of the group-local stage 2: the
// root (the rank holding the assembled asn) relabels it and sends the wire
// form to every other alive rank, which receives it; every rank then
// rebuilds its view from that wire form.
func (r *spmdRun) shareAssignment(asn *partition.Assignment, iter int) (*asnView, error) {
	me := r.me()
	tag := r.prefix() + fmt.Sprintf("s2asn-%d", iter)
	var wire wireAssignment
	if asn == nil {
		payload, err := r.ep.Recv(r.root(), tag)
		if err != nil {
			return nil, err
		}
		if err := transport.DecodeGob(payload, &wire); err != nil {
			return nil, err
		}
	} else {
		wire = encodeAssignment(r.assign, r.remap(asn))
		payload, err := transport.EncodeGob(wire)
		if err != nil {
			return nil, err
		}
		for p, a := range r.alive {
			if !a || p == me {
				continue
			}
			if err := r.ep.Send(p, tag, payload); err != nil {
				return nil, err
			}
			r.res.BytesSent += int64(len(payload))
		}
	}
	return viewFromWire(r.assign, &wire, len(r.alive), me)
}

// setup (re)builds the run's distribution state for the given iteration and
// returns the iteration actually restored: partition over the currently
// eligible ranks, ghost plan, and patches — from Kernel.Init at iteration 0,
// from checkpoint shards otherwise. A corrupt epoch falls back to the newest
// intact earlier one (every rank scans the same shared directory, so all
// ranks land on the same epoch without coordination), re-initializing when
// none survives.
func (r *spmdRun) setup(iter int) (int, error) {
	for {
		err := r.setupAt(iter)
		if err == nil {
			return iter, nil
		}
		if iter <= 0 || !errors.Is(err, checkpoint.ErrCorrupt) {
			return 0, err
		}
		r.res.CkptFallbacks++
		prev := checkpoint.PrevShardIter(r.cfg.FT.CheckpointDir, iter)
		if prev < 0 {
			prev = 0
		}
		iter = prev
	}
}

// setupAt is one restoration attempt at exactly iter.
func (r *spmdRun) setupAt(iter int) error {
	k := r.cfg.Kernel
	psp := r.sc.om.span(obs.PhasePartition)
	r.sc.tr.SetPos(r.epoch, iter)
	ptr := r.sc.tr.Span(trace.PhasePartition)
	asn, err := r.partitionEligible(iter)
	ptr.End()
	psp.End()
	if err != nil {
		return err
	}
	v := newAsnView(asn, r.me())
	r.assign = v
	r.plan = r.cfg.ghostPlanAt(v, r.me(), r.ep.Size(), k.Ghost(), r.prefix(), &r.sc)
	r.spares = map[geom.Box]*amr.Patch{}
	r.lastPart = iter
	if iter == 0 {
		r.patches = map[geom.Box]*amr.Patch{}
		for _, i := range v.mine {
			b := asn.Boxes[i]
			p := amr.NewPatch(b, k.Ghost(), k.NumFields())
			k.Init(p, r.cfg.BaseGrid)
			r.patches[b] = p
		}
		return nil
	}
	merged, err := checkpoint.LoadShards(r.cfg.FT.CheckpointDir, iter)
	if err != nil {
		return fmt.Errorf("engine: rank %d restore at %d: %w", r.me(), iter, err)
	}
	r.patches, err = assemblePatches(asn, r.me(), k.Ghost(), k.NumFields(), merged)
	return err
}

// assemblePatches builds the rank's owned patches from a merged shard map.
// Shard boxes may be split differently than the new assignment's (ownership
// changed hands), so each new patch is stitched from every overlapping shard
// region, with full interior coverage verified cell by cell. Overlapping
// shard regions are safe: bit-exact determinism makes their values
// identical wherever they intersect.
func assemblePatches(asn *partition.Assignment, me, ghost, fields int, merged map[geom.Box]*amr.Patch) (map[geom.Box]*amr.Patch, error) {
	patches := map[geom.Box]*amr.Patch{}
	for i, nb := range asn.Boxes {
		if asn.Owners[i] != me {
			continue
		}
		p := amr.NewPatch(nb, ghost, fields)
		covered := make([]bool, nb.Cells())
		for ob, op := range merged {
			region := nb.Intersect(ob)
			if region.Empty() {
				continue
			}
			if err := apply(p, region, extract(op, region)); err != nil {
				return nil, err
			}
			forEachCell(region, func(pt geom.Point) {
				covered[boxIndex(nb, pt)] = true
			})
		}
		for _, c := range covered {
			if !c {
				return nil, fmt.Errorf("engine: checkpoint shards do not cover box %v", nb)
			}
		}
		patches[nb] = p
	}
	return patches, nil
}

// boxIndex linearizes pt within b (x fastest), for coverage bitmaps.
func boxIndex(b geom.Box, pt geom.Point) int {
	idx, stride := 0, 1
	for d := 0; d < b.Rank; d++ {
		idx += (pt[d] - b.Lo[d]) * stride
		stride *= b.Size(d)
	}
	return idx
}

// pollAnnounces drains rejoin announcements from ranks currently agreed
// dead. Announces from ranks not (yet) declared dead stay queued: a rank
// that revives faster than its death is detected is admitted only after the
// collective has processed the death, keeping the membership history linear.
func (r *spmdRun) pollAnnounces() {
	po, ok := r.ep.(transport.Poller)
	if !ok {
		return
	}
	for p, a := range r.alive {
		if a || r.pendingJoin[p] {
			continue
		}
		if _, got, err := po.TryRecv(p, tagRejoinAnnounce); err == nil && got {
			r.pendingJoin[p] = true
		}
	}
}

// joinList returns the pending joins, sorted.
func (r *spmdRun) joinList() []int {
	if len(r.pendingJoin) == 0 {
		return nil
	}
	out := make([]int, 0, len(r.pendingJoin))
	for p := range r.pendingJoin {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// heartbeat runs the two-round failure detection + agreement protocol for an
// iteration and returns the newly-dead ranks and, on a clean round, the
// joins to admit.
//
// Round 1: every alive rank all-gathers an hbMsg; a peer not heard from
// within the control deadline becomes a suspect. Under the boundary-crash failure model a dead rank
// sent nothing this iteration, so every survivor times out on it in this
// round. Round 2: ranks exchange their round-1 suspect sets and union what
// they receive, so all survivors leave with an identical dead set even if
// their local observations differed. Pending joins ride the same two rounds:
// any locally-discovered announce is advertised to everyone in round 1, so
// all ranks finish the round with the identical sticky join set. On a clean
// round the agreed restore point advances to the minimum durable checkpoint
// advertised by all participants, the straggler detector replicas consume
// the identical gossiped timing vector, and the pending joins are admitted.
func (r *spmdRun) heartbeat(iter int) (newDead, joins []int, err error) {
	me := r.me()
	r.sc.tr.SetPos(r.epoch, iter)
	r.pollAnnounces()
	suspects := map[int]bool{}
	ckpts := []int{r.durableCkpt()}
	perCell := make([]float64, len(r.alive))
	perCell[me] = float64(r.stepPS)

	send := func(round int, dead []int) error {
		m := hbMsg{Ckpt: r.durableCkpt(), StepPS: r.stepPS, Dead: dead, Join: r.joinList()}
		payload := encodeHb(m)
		tag := fmt.Sprintf("%shb%d-%d", r.prefix(), round, iter)
		for p := range r.alive {
			if p == me || !r.alive[p] || suspects[p] {
				continue
			}
			if r.sc.tr != nil {
				// The clock-sync extension is per-receiver (the echoed delta
				// belongs to one pairwise link), so traced heartbeats are
				// re-encoded per peer; the tracing-off path keeps the single
				// shared encoding above.
				m.HasTrace = true
				m.DeltaNS = r.sc.tr.HBDelta(p)
				m.SendNS = r.sc.tr.Now()
				payload = encodeHb(m)
			}
			if err := r.ep.Send(p, tag, payload); err != nil {
				return err
			}
			r.res.BytesSent += int64(len(payload))
		}
		return nil
	}
	recv := func(round int) error {
		tag := fmt.Sprintf("%shb%d-%d", r.prefix(), round, iter)
		// Both rounds wait on all outstanding peers at once, within one
		// window from the round's start. A live peer sends round 2 only
		// after its own round-1 window, so round 2 allows two. Receives
		// rotate among the outstanding peers in short slices: a message
		// naming a rank dead releases every wait on that rank at once, so
		// survivors leave a dirty round within a slice of one another
		// instead of one control deadline apart.
		window := r.ctrl
		if round == 2 {
			window *= 2
		}
		deadline := time.Now().Add(window)
		slice := max(window/8, time.Millisecond)
		got := make([]bool, len(r.alive))
		for {
			pending := false
			for p := range r.alive {
				if p == me || !r.alive[p] || suspects[p] || got[p] {
					continue
				}
				pending = true
				left := time.Until(deadline)
				if left <= 0 {
					suspects[p] = true
					continue
				}
				wait := min(slice, left)
				t0 := time.Now()
				payload, err := r.ep.RecvTimeout(p, tag, wait)
				if errors.Is(err, transport.ErrRankDown) {
					// A transport that knows the peer is gone says so
					// before the slice runs out.
					if time.Since(t0) < wait {
						suspects[p] = true
					}
					continue
				}
				if err != nil {
					return err
				}
				got[p] = true
				m, err := decodeHb(payload)
				if err != nil {
					return err
				}
				if m.HasTrace && r.sc.tr != nil {
					r.sc.tr.ObserveHeartbeat(p, m.SendNS, m.DeltaNS)
				}
				if round == 1 {
					ckpts = append(ckpts, m.Ckpt)
					perCell[p] = float64(m.StepPS)
				}
				for _, d := range m.Dead {
					if d >= 0 && d < len(r.alive) && r.alive[d] && d != me {
						suspects[d] = true
					}
				}
				for _, j := range m.Join {
					if j >= 0 && j < len(r.alive) && !r.alive[j] {
						r.pendingJoin[j] = true
					}
				}
			}
			if !pending {
				return nil
			}
		}
	}

	if err := send(1, r.deadList()); err != nil {
		return nil, nil, err
	}
	if err := recv(1); err != nil {
		return nil, nil, err
	}
	round2Dead := r.deadList()
	for p := range suspects {
		round2Dead = append(round2Dead, p)
	}
	sort.Ints(round2Dead)
	if err := send(2, round2Dead); err != nil {
		return nil, nil, err
	}
	if err := recv(2); err != nil {
		return nil, nil, err
	}

	if len(suspects) == 0 {
		stable := ckpts[0]
		for _, c := range ckpts[1:] {
			if c < stable {
				stable = c
			}
		}
		r.stable = stable
		if r.strag != nil {
			for _, trans := range r.strag.Observe(perCell, r.alive) {
				if trans.To > trans.From {
					r.res.StragglerDemotions++
				} else {
					r.res.StragglerPromotions++
				}
				r.sc.tr.Verdict(trans.Rank, trans.To.String())
			}
		}
		joins = r.joinList()
		clear(r.pendingJoin)
		return nil, joins, nil
	}
	newDead = make([]int, 0, len(suspects))
	for p := range suspects {
		r.alive[p] = false
		newDead = append(newDead, p)
	}
	sort.Ints(newDead)
	return newDead, nil, nil
}

// deadList returns the currently-dead ranks, sorted.
func (r *spmdRun) deadList() []int {
	var dead []int
	for p, a := range r.alive {
		if !a {
			dead = append(dead, p)
		}
	}
	return dead
}

// admit re-admits the agreed joins at an iteration boundary. Every survivor
// marks them alive, bumps the epoch, and resets its straggler replica (the
// joiners start with no history, and replicas must stay identical); the
// lowest-ranked survivor grants the welcome carrying the collective state.
// All members — joiners included, as pure receivers — then run the identical
// admission repartition, so the work the dead rank shed flows back.
func (r *spmdRun) admit(iter int, joins []int) error {
	host := r.root()
	for _, j := range joins {
		r.alive[j] = true
	}
	r.epoch++
	r.resetStraggler()
	r.res.Admissions += len(joins)
	if r.me() == host {
		w := welcomeMsg{
			Iter: iter, Epoch: r.epoch, Stable: r.stable,
			Alive: append([]bool(nil), r.alive...),
			Boxes: r.assign.Boxes, Owners: r.assign.Owners,
		}
		payload, err := transport.EncodeGob(w)
		if err != nil {
			return err
		}
		for _, j := range joins {
			if err := r.ep.Send(j, tagRejoinWelcome, payload); err != nil {
				return err
			}
			r.res.BytesSent += int64(len(payload))
		}
	}
	return r.repartitionNow(iter)
}

// rejoin is the restarted rank's half of the re-admission protocol: revive
// the transport slot, announce to every peer, wait for the survivors'
// welcome, adopt the collective state it carries, and receive this rank's
// share of the admission repartition.
func (r *spmdRun) rejoin() (*welcomeMsg, error) {
	po, ok := r.ep.(transport.Poller)
	if !ok {
		return nil, fmt.Errorf("engine: rejoin requires a transport.Poller endpoint")
	}
	// Pre-crash async shard writes settle first: the restarted process must
	// not race its former self on the checkpoint directory.
	r.ckptWG.Wait()
	if rv, ok := r.ep.(transport.Reviver); ok {
		rv.Revive()
	}
	for p := 0; p < r.ep.Size(); p++ {
		if p == r.me() {
			continue
		}
		if err := r.ep.Send(p, tagRejoinAnnounce, nil); err != nil {
			return nil, err
		}
	}
	deadline := r.cfg.FT.RejoinDeadline
	if deadline <= 0 {
		deadline = DefaultRejoinDeadline
	}
	var w welcomeMsg
	found := false
	for waited := time.Duration(0); !found && waited < deadline; {
		for p := 0; p < r.ep.Size() && !found; p++ {
			if p == r.me() {
				continue
			}
			payload, got, err := po.TryRecv(p, tagRejoinWelcome)
			if err != nil {
				return nil, err
			}
			if !got {
				continue
			}
			if err := transport.DecodeGob(payload, &w); err != nil {
				return nil, err
			}
			found = true
		}
		if !found {
			time.Sleep(rejoinPollEvery)
			waited += rejoinPollEvery
		}
	}
	if !found {
		return nil, fmt.Errorf("engine: rank %d: no rejoin welcome within %v", r.me(), deadline)
	}
	if len(w.Alive) != len(r.alive) {
		return nil, fmt.Errorf("engine: rank %d: %w: rejoin welcome for %d ranks, group has %d",
			r.me(), transport.ErrMalformed, len(w.Alive), len(r.alive))
	}
	standing, err := viewFromWire(nil, &wireAssignment{Boxes: w.Boxes, Owners: w.Owners}, len(r.alive), r.me())
	if err != nil {
		return nil, fmt.Errorf("engine: rank %d: rejoin welcome: %w", r.me(), err)
	}
	// Adopt the collective state the survivors agreed on. Durable is set to
	// the collective stable point: this rank's pre-crash shards at that
	// iteration are on disk by the stable point's construction, and
	// advertising anything older would drag the whole group backwards.
	copy(r.alive, w.Alive)
	r.alive[r.me()] = true
	r.epoch = w.Epoch
	r.stable = w.Stable
	r.ckptMu.Lock()
	r.durable = w.Stable
	r.ckptErr = nil
	r.ckptMu.Unlock()
	r.assign = standing
	r.patches = map[geom.Box]*amr.Patch{}
	r.spares = map[geom.Box]*amr.Patch{}
	r.stepPS = 0
	r.resetStraggler()
	// Join the admission repartition as a pure receiver (this rank owns
	// nothing in the standing assignment).
	if err := r.repartitionNow(w.Iter); err != nil {
		return nil, err
	}
	return &w, nil
}

// repartitionNow repartitions over the current eligible membership, remaps
// for movement affinity, and redistributes patch data — the shared tail of
// scheduled repartitions, recoveries are handled by setup, and admissions.
func (r *spmdRun) repartitionNow(iter int) error {
	cfg, k := r.cfg, r.cfg.Kernel
	psp := r.sc.om.span(obs.PhasePartition)
	r.sc.tr.SetPos(r.epoch, iter)
	ptr := r.sc.tr.Span(trace.PhasePartition)
	var newView *asnView
	var err error
	if h, ok := cfg.Partitioner.(*partition.Hierarchical); ok && !cfg.CentralPartition && r.ep.Size() > 1 {
		// All alive ranks enter repartitionNow synchronously, so the
		// group-local gather is safe here (and only here).
		newView, err = r.partitionEligibleGroupLocal(h, iter)
	} else {
		// Replicated: PartitionAlive and the remap are deterministic
		// functions of shared state, so every rank derives the same
		// assignment and labels with zero messages.
		var a *partition.Assignment
		if a, err = r.partitionEligible(iter); err == nil {
			newView = newAsnView(r.remap(a), r.me())
		}
	}
	ptr.End()
	psp.End()
	if err != nil {
		return err
	}
	r.patches, err = redistribute(r.ep, r.assign, newView, r.patches, k, iter, r.res, r.prefix(), cfg.CentralPlans, &r.sc)
	if err != nil {
		return err
	}
	r.assign = newView
	r.plan = cfg.ghostPlanAt(newView, r.me(), r.ep.Size(), k.Ghost(), r.prefix(), &r.sc)
	clear(r.spares)
	r.lastPart = iter
	r.res.Repartitions++
	return nil
}

// recoverAt rolls the rank back to the agreed restore iteration: bump the
// epoch (namespacing all future tags away from pre-crash traffic),
// re-partition the tiles over the survivors, and restore patches from the
// checkpoint shards (or re-initialize when restore == 0). It returns the
// iteration actually restored — older than asked when the newest shards
// were corrupt and setup fell back.
func (r *spmdRun) recoverAt(restore int) (int, error) {
	// Let any in-flight shard write settle before re-reading the directory.
	r.ckptWG.Wait()
	r.ckptMu.Lock()
	err := r.ckptErr
	r.ckptMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("engine: async checkpoint failed before recovery: %w", err)
	}
	r.epoch++
	actual, err := r.setup(restore)
	if err != nil {
		return 0, err
	}
	if actual < restore {
		// The epoch we believed durable was not: demote both marks so the
		// next heartbeat re-agrees on a stable point that actually exists.
		r.stable = actual
		r.ckptMu.Lock()
		if r.durable > actual {
			r.durable = actual
		}
		r.ckptMu.Unlock()
	}
	return actual, nil
}

// writeCheckpoint snapshots the rank's owned patches as a shard for iter.
// Patches are cloned synchronously (the cut point), then serialized and
// written asynchronously unless SyncCheckpoint is set. Writes are serialized
// per rank so durability is monotonic in iteration order. With retention
// enabled, shards strictly below the agreed stable point are pruned down to
// CheckpointKeep epochs — never at or above it, since the stable point (and
// the corruption fallback chain under it) is what recovery restores from.
func (r *spmdRun) writeCheckpoint(iter int) error {
	r.ckptWG.Wait() // serialize with the previous async write
	r.ckptMu.Lock()
	err := r.ckptErr
	r.ckptMu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: async checkpoint failed: %w", err)
	}
	// The checkpoint span covers the synchronous cut: cloning always, the
	// shard write too when SyncCheckpoint blocks on it.
	ksp := r.sc.om.span(obs.PhaseCheckpoint)
	ktr := r.sc.tr.Span(trace.PhaseCheckpoint)
	clones := make(map[geom.Box]*amr.Patch, len(r.patches))
	for b, p := range r.patches {
		clones[b] = p.Clone()
	}
	sh := &checkpoint.SPMDShard{Iter: iter, Rank: r.me(), Size: r.ep.Size(), Patches: clones}
	dir := r.cfg.FT.CheckpointDir
	stable := r.stable // capture: the async writer must not race the loop
	r.res.Checkpoints++
	if r.cfg.FT.SyncCheckpoint {
		if err := checkpoint.SaveShard(dir, sh); err != nil {
			ktr.End()
			ksp.End()
			return err
		}
		r.setDurable(iter)
		ktr.End()
		ksp.End()
		return r.pruneShards(stable)
	}
	ktr.End()
	ksp.End()
	r.ckptWG.Add(1)
	go func() {
		defer r.ckptWG.Done()
		if err := checkpoint.SaveShard(dir, sh); err != nil {
			r.ckptMu.Lock()
			r.ckptErr = err
			r.ckptMu.Unlock()
			return
		}
		r.setDurable(iter)
		if err := r.pruneShards(stable); err != nil {
			r.ckptMu.Lock()
			r.ckptErr = err
			r.ckptMu.Unlock()
		}
	}()
	return nil
}

// pruneShards enforces CheckpointKeep retention below the stable point.
func (r *spmdRun) pruneShards(stable int) error {
	keep := r.cfg.FT.CheckpointKeep
	if keep <= 0 {
		return nil
	}
	_, err := checkpoint.PruneShards(r.cfg.FT.CheckpointDir, r.me(), stable, keep)
	return err
}

func (r *spmdRun) setDurable(iter int) {
	r.ckptMu.Lock()
	if iter > r.durable {
		r.durable = iter
	}
	r.ckptMu.Unlock()
}

func (r *spmdRun) durableCkpt() int {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return r.durable
}

// step executes one iteration: scheduled repartition, ghost exchange with
// compute/communication overlap, global dt agreement over the alive ranks,
// and patch advances. Under FT it also applies injected compute dilation
// and times the per-cell step cost for the straggler gossip.
func (r *spmdRun) step(iter int) error {
	cfg, k := r.cfg, r.cfg.Kernel
	r.sc.om.setIter(iter)
	r.sc.tr.SetPos(r.epoch, iter)
	if cfg.RepartEvery > 0 && iter > 0 && iter%cfg.RepartEvery == 0 && iter != r.lastPart {
		if err := r.repartitionNow(iter); err != nil {
			return err
		}
	}
	if err := r.plan.postSends(r.ep, r.patches, r.res); err != nil {
		return err
	}
	dt := cfg.DT
	if dt == 0 {
		local := math.Inf(1)
		for _, p := range r.patches {
			if d := k.MaxDT(p, cfg.BaseGrid); d < local {
				local = d
			}
		}
		var err error
		dtr := r.sc.tr.Span(trace.PhaseDtWait)
		dt, err = r.allReduceMin(iter, local)
		dtr.End()
		if err != nil {
			return err
		}
		if math.IsInf(dt, 1) {
			dt = 0
		}
	}
	var cells int64
	csp := r.sc.om.span(obs.PhaseCompute)
	ctr := r.sc.tr.Span(trace.PhaseCompute)
	t0 := time.Now()
	for _, b := range r.plan.interior {
		stepPatch(k, cfg.BaseGrid, r.patches, r.spares, b, dt)
		r.res.InteriorSteps++
		cells += b.Cells()
	}
	computeDur := time.Since(t0)
	ctr.End()
	csp.End()
	if err := r.plan.finishRecvs(r.ep, r.patches, r.res); err != nil {
		return err
	}
	bsp := r.sc.om.span(obs.PhaseCompute)
	btr := r.sc.tr.Span(trace.PhaseAdvance)
	t1 := time.Now()
	for _, b := range r.plan.boundary {
		stepPatch(k, cfg.BaseGrid, r.patches, r.spares, b, dt)
		r.res.BoundarySteps++
		cells += b.Cells()
	}
	computeDur += time.Since(t1)
	btr.End()
	bsp.End()
	// Injected gray failure: dilate this iteration's compute proportionally
	// to the measured work, so the rank's per-cell time reads Factor× its
	// natural speed on any machine.
	if f := r.slowFactor(iter); f > 1 && computeDur > 0 {
		pad := time.Duration(float64(computeDur) * (f - 1))
		time.Sleep(pad)
		computeDur += pad
	}
	// The timing sample only travels on heartbeats.
	if cfg.FT.Enabled {
		if cells > 0 {
			r.stepPS = perCellPS(computeDur, cells)
		} else {
			r.canaryProbe(dt, r.slowFactor(iter))
		}
	}
	r.sc.om.sync(r.res)
	return nil
}

// perCellPS converts a compute duration over a cell count to picoseconds
// per cell, clamped to >= 1 so "has a sample" is distinguishable from 0.
func perCellPS(d time.Duration, cells int64) int64 {
	ps := d.Nanoseconds() * 1000 / cells
	if ps < 1 {
		ps = 1
	}
	return ps
}

// canaryProbe keeps a workless (quarantined) rank producing comparable
// step-time samples: it advances a small private patch nobody else sees and
// reports that per-cell time. Without the probe a quarantined rank would
// emit no samples, its EWMA would freeze at the value that condemned it, and
// it could never be exonerated. An injected slow window scales the probe's
// reading the same way it dilates real work, so a still-slow rank keeps
// looking slow.
func (r *spmdRun) canaryProbe(dt, factor float64) {
	k := r.cfg.Kernel
	if r.canaryCur == nil {
		b := geom.Box{Rank: r.cfg.Domain.Rank}
		for d := 0; d < b.Rank; d++ {
			b.Lo[d] = r.cfg.Domain.Lo[d]
			b.Hi[d] = r.cfg.Domain.Lo[d] + 7
		}
		r.canaryCur = amr.NewPatch(b, k.Ghost(), k.NumFields())
		k.Init(r.canaryCur, r.cfg.BaseGrid)
		r.canaryNext = amr.NewPatch(b, k.Ghost(), k.NumFields())
	}
	t0 := time.Now()
	k.Step(r.canaryNext, r.canaryCur, r.cfg.BaseGrid, dt)
	dur := time.Since(t0)
	r.canaryCur, r.canaryNext = r.canaryNext, r.canaryCur
	if factor > 1 {
		dur = time.Duration(float64(dur) * factor)
	}
	r.stepPS = perCellPS(dur, r.canaryCur.Box.Cells())
}

// allReduceMin agrees on the global minimum of a float64 across the alive
// ranks, with epoch-namespaced tags and deadline-bounded receives. Float min
// is order-independent, so the result is bit-identical on every rank
// regardless of arrival order.
func (r *spmdRun) allReduceMin(iter int, local float64) (float64, error) {
	me := r.me()
	tag := fmt.Sprintf("%sdt-%d", r.prefix(), iter)
	payload := transport.EncodeFloats([]float64{local})
	for p := range r.alive {
		if p == me || !r.alive[p] {
			continue
		}
		if err := r.ep.Send(p, tag, payload); err != nil {
			return 0, err
		}
		r.res.BytesSent += int64(len(payload))
	}
	minVal := local
	for p := range r.alive {
		if p == me || !r.alive[p] {
			continue
		}
		got, err := r.ep.RecvTimeout(p, tag, r.data)
		if err != nil {
			return 0, err
		}
		vals, err := transport.DecodeFloats(got, nil)
		if err != nil {
			return 0, err
		}
		if len(vals) != 1 {
			return 0, fmt.Errorf("engine: dt reduce got %d values", len(vals))
		}
		if vals[0] < minVal {
			minVal = vals[0]
		}
	}
	return minVal, nil
}
