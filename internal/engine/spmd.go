package engine

import (
	"fmt"
	"math"
	"sort"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/geom"
	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/parallel"
	"samrpart/internal/partition"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// SPMDConfig configures a genuinely parallel single-level (domain
// decomposed) run over a transport group: every rank owns the patches the
// partitioner assigns it, exchanges ghost regions with neighbors through the
// transport, agrees on a global stable dt, and redistributes patch data when
// the capacities change. The multi-level AMR pipeline runs in-process in
// SimApp; this runner demonstrates and tests the distributed substrate
// (transport + partition + redistribution) with real numerics.
type SPMDConfig struct {
	// Domain is the computational domain, pre-split into Tiles x Tiles...
	// boxes to give the partitioner granularity.
	Domain geom.Box
	// TileSize is the edge length of the fixed decomposition tiles.
	TileSize int
	// Kernel and BaseGrid define the numerics.
	Kernel   solver.Kernel
	BaseGrid solver.Grid
	// Partitioner distributes the tiles (capacity aware).
	Partitioner partition.Partitioner
	// CapsAt returns the relative capacities at an iteration; it must be
	// identical on every rank (e.g. driven by the shared monitor). Called
	// at iteration 0 and every RepartEvery iterations.
	CapsAt func(iter int) []float64
	// Iterations is the number of time steps.
	Iterations int
	// RepartEvery repartitions every N iterations (0 = never after start).
	RepartEvery int
	// DT fixes the time step; 0 derives a global stable dt each step.
	DT float64
	// RecvDeadline bounds every blocking data-plane receive in the step loop
	// (ghost exchange, dt agreement, migration, the stage-2 gather) so a
	// silently-dead peer surfaces as transport.ErrRankDown instead of a
	// hang. 0 selects DefaultRecvDeadline.
	RecvDeadline time.Duration
	// ControlDeadline bounds the control-plane receives (heartbeats and
	// admission rounds). Failure detection latency is this deadline, so it
	// is usually much shorter than RecvDeadline: a tight control deadline
	// detects deaths fast without racing bulk data transfers. 0 inherits
	// the resolved RecvDeadline.
	ControlDeadline time.Duration
	// CentralPlans rebuilds communication plans through the retained
	// coordinator-style full build — every rank's ghost and migration plan
	// derived in one global pass — instead of the default distributed
	// per-rank builders. Both paths produce bit-identical plans; the central
	// path survives as the differential oracle and as the baseline the
	// weak-scaling study measures the distributed builders against.
	CentralPlans bool
	// CentralPartition retains the centralized partition decision — the full
	// Partitioner.Partition over all boxes, replicated on every rank —
	// instead of the default group-local stage 2 used when the partitioner
	// is hierarchical: each rank slices only its own group's SFC segment and
	// the segments are assembled from the group leaders. Both paths produce
	// bit-identical assignments (GroupPlan.Assemble replays Partition's exact
	// composition order); the central path survives as the differential
	// oracle and as the baseline for the stage-2 scaling study.
	CentralPartition bool
	// Workers bounds the worker pool used for plan construction and frame
	// pack/unpack inside a rank. Unlike the engine Config knob, 0 (the zero
	// value) keeps the serial path — an SPMD rank usually shares its host
	// with peer ranks, so intra-rank fan-out is opt-in; values > 1 enable
	// that many workers. Every parallel site merges in a fixed order, so
	// results are bit-identical at any width.
	Workers int
	// NoAffinityRemap disables the movement-aware owner relabeling
	// (partition.RemapOwners) applied after each scheduled repartition, so
	// experiments can measure the migration volume it saves.
	NoAffinityRemap bool
	// FT enables heartbeat failure detection and checkpoint-based recovery.
	FT FTConfig
	// Faults is the fault schedule (crash, rejoin, slow, pause — see
	// ParseFaultSpec). A crash kills the rank's endpoint at the start of its
	// iteration, so the endpoint must implement transport.Killer (wrap it in
	// transport.Faulty); a crash followed by a rejoin event re-admits the
	// rank through the elastic-membership protocol instead of ending its
	// run. Non-crash kinds require FT.Enabled.
	Faults FaultSchedule
	// Straggler enables the replicated slow-rank detector: per-rank step
	// timings gossiped on heartbeats feed identical detector replicas, and
	// demoted/quarantined ranks lose capacity (or all work) at the next
	// repartition. Requires FT.Enabled to have any effect.
	Straggler monitor.StragglerPolicy
	// Obs, when set, receives per-rank phase spans and transport counters.
	// When the runtime also has a span log, each rank records the
	// distributed trace: spans tagged (rank, epoch, iter, phase),
	// message-level send/recv records with a trace context piggybacked on
	// coalesced frames and heartbeats, and pairwise clock-offset estimates
	// from heartbeat RTTs. Nil disables observability. The simulation output
	// is bit-identical either way: the context only extends wire headers,
	// never the applied payload, and without a log the wire is unchanged.
	Obs *obs.Runtime
}

// SPMDResult reports one rank's outcome.
type SPMDResult struct {
	Rank       int
	OwnedBoxes geom.BoxList
	// L1Sum is Σ|u| over owned interiors (field 0), a cheap global check.
	L1Sum float64
	// BytesSent counts transport payload bytes this rank sent.
	BytesSent int64
	// MsgsSent and MsgsRecvd count the point-to-point data-plane messages
	// this rank exchanged (halo and migration frames; control messages and
	// the dt/heartbeat rounds are excluded). MsgsSent is exactly one per
	// communicating rank pair per iteration.
	MsgsSent  int64
	MsgsRecvd int64
	// MigratedBytes counts patch payload bytes this rank shipped to other
	// ranks during redistributions; RetainedBytes counts the payload bytes
	// repartitions let it keep in place. Together they expose the movement
	// cost of adapting the partition.
	MigratedBytes int64
	RetainedBytes int64
	// Repartitions counts how many times ownership changed hands.
	Repartitions int
	// InteriorSteps counts patch steps taken while remote halo data was
	// still in flight (compute/communication overlap); BoundarySteps counts
	// steps that had to wait for remote regions first.
	InteriorSteps int64
	BoundarySteps int64
	// Crashed reports this rank executed an injected fail-stop crash and
	// returned early (its other counters stop at the crash point).
	Crashed bool
	// Rejoined reports this rank crashed (or paused) and was re-admitted
	// into the group through the elastic-membership protocol.
	Rejoined bool
	// Admissions counts dead ranks this rank helped re-admit.
	Admissions int
	// StragglerDemotions/StragglerPromotions count slow-rank state
	// transitions this rank's detector replica observed (demotions move
	// toward shed/quarantined, promotions back toward normal).
	StragglerDemotions  int
	StragglerPromotions int
	// CkptFallbacks counts corrupt checkpoint epochs skipped during
	// restores (each is one step back in the retention chain).
	CkptFallbacks int
	// Recoveries counts completed rank-failure recoveries; RestoredFrom is
	// the iteration the latest recovery rolled back to (0 = re-initialized).
	Recoveries   int
	RestoredFrom int
	// DeadRanks lists the ranks this rank agreed were lost.
	DeadRanks []int
	// Checkpoints counts distributed checkpoint shards this rank wrote.
	Checkpoints int
	// Patches are the rank's owned patches at exit, keyed by interior box,
	// so callers can reassemble and compare the global solution exactly.
	Patches map[geom.Box]*amr.Patch
}

func (c SPMDConfig) validate() error {
	if c.Domain.Empty() {
		return fmt.Errorf("engine: spmd empty domain")
	}
	if c.TileSize < 1 {
		return fmt.Errorf("engine: spmd tile size %d", c.TileSize)
	}
	if c.Kernel == nil || c.Partitioner == nil || c.CapsAt == nil {
		return fmt.Errorf("engine: spmd missing kernel/partitioner/caps")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("engine: spmd iterations %d", c.Iterations)
	}
	if c.RecvDeadline < 0 {
		return fmt.Errorf("engine: negative recv deadline")
	}
	if c.ControlDeadline < 0 {
		return fmt.Errorf("engine: negative control deadline")
	}
	if err := c.FT.validate(); err != nil {
		return err
	}
	if !c.FT.Enabled {
		for _, ev := range c.Faults {
			if ev.Kind != FaultCrash {
				return fmt.Errorf("engine: fault kind %v requires FT.Enabled", ev.Kind)
			}
		}
	}
	return nil
}

// recvDeadline resolves the configured data-plane receive bound.
func (c SPMDConfig) recvDeadline() time.Duration {
	if c.RecvDeadline > 0 {
		return c.RecvDeadline
	}
	return DefaultRecvDeadline
}

// controlDeadline resolves the control-plane (heartbeat) receive bound,
// inheriting the data-plane bound when unset.
func (c SPMDConfig) controlDeadline() time.Duration {
	if c.ControlDeadline > 0 {
		return c.ControlDeadline
	}
	return c.recvDeadline()
}

// tiles decomposes the domain into fixed tiles.
func (c SPMDConfig) tiles() geom.BoxList {
	var out geom.BoxList
	d := c.Domain
	switch d.Rank {
	case 2:
		for y := d.Lo[1]; y <= d.Hi[1]; y += c.TileSize {
			for x := d.Lo[0]; x <= d.Hi[0]; x += c.TileSize {
				b := geom.Box2(x, y, min(x+c.TileSize-1, d.Hi[0]), min(y+c.TileSize-1, d.Hi[1]))
				out = append(out, b)
			}
		}
	default:
		for z := d.Lo[2]; z <= d.Hi[2]; z += c.TileSize {
			for y := d.Lo[1]; y <= d.Hi[1]; y += c.TileSize {
				for x := d.Lo[0]; x <= d.Hi[0]; x += c.TileSize {
					b := geom.Box3(x, y, z,
						min(x+c.TileSize-1, d.Hi[0]),
						min(y+c.TileSize-1, d.Hi[1]),
						min(z+c.TileSize-1, d.Hi[2]))
					out = append(out, b)
				}
			}
		}
	}
	return out
}

// wireAssignment is the wire form of an assignment, which the hierarchical
// gather's root sends to every other rank. The full form carries the whole
// box→owner table; the delta form (Delta true) carries only the owners that
// changed relative to the standing assignment, which every rank already
// holds — keeping repartition traffic proportional to how much ownership
// actually moved, not to total box count. The delta form is only valid when
// the repartition kept the box list itself unchanged (owner-only moves, the
// steady state).
type wireAssignment struct {
	Delta  bool
	Boxes  []geom.Box
	Owners []int
	// Changed/NewOwners are the delta form: Changed[i] is a box index in
	// the standing assignment whose owner becomes NewOwners[i]. Ascending.
	Changed   []int32
	NewOwners []int32
}

// asnView pairs the shared assignment with the ascending indexes of one
// rank's own boxes. Plan construction iterates the mine list — O(own boxes)
// — instead of rescanning the global owner table, and owner deltas
// maintain the list incrementally, so per-rank repartition cost stops
// growing with total box count.
type asnView struct {
	*partition.Assignment
	mine []int
}

// newAsnView builds a view by scanning the owner table (used after a full
// wire assignment or a locally computed one).
func newAsnView(a *partition.Assignment, me int) *asnView {
	v := &asnView{Assignment: a}
	for i, o := range a.Owners {
		if o == me {
			v.mine = append(v.mine, i)
		}
	}
	return v
}

// viewFromWire rebuilds rank me's view from a received wire assignment in a
// group of size ranks: owner deltas patch the standing view prev, a full
// table is adopted with per-node work recomputed. The wire form comes from
// a peer, so it is checked before any index is used; a malformed one
// returns an error wrapping transport.ErrMalformed.
func viewFromWire(prev *asnView, wire *wireAssignment, size, me int) (*asnView, error) {
	if wire.Delta {
		if prev == nil {
			return nil, fmt.Errorf("%w: owner delta without a standing assignment", transport.ErrMalformed)
		}
		return applyDelta(prev, wire, me)
	}
	if len(wire.Boxes) != len(wire.Owners) {
		return nil, fmt.Errorf("%w: assignment of %d boxes has %d owners",
			transport.ErrMalformed, len(wire.Boxes), len(wire.Owners))
	}
	a := &partition.Assignment{
		Boxes:  wire.Boxes,
		Owners: wire.Owners,
		Work:   make([]float64, size),
		Ideal:  make([]float64, size),
	}
	for i, b := range a.Boxes {
		o := a.Owners[i]
		if o < 0 || o >= size {
			return nil, fmt.Errorf("%w: box %d owner %d outside [0,%d)", transport.ErrMalformed, i, o, size)
		}
		a.Work[o] += partition.CellWork(b)
	}
	return newAsnView(a, me), nil
}

// applyDelta derives the new view from prev and an owner delta: owners and
// per-node work are copied and patched, and the mine list is merged
// incrementally from the (ascending) changed indexes. The delta must name
// strictly ascending box indexes of prev, each with an owner among prev's
// nodes; anything else returns an error wrapping transport.ErrMalformed.
func applyDelta(prev *asnView, wire *wireAssignment, me int) (*asnView, error) {
	if len(wire.Changed) != len(wire.NewOwners) {
		return nil, fmt.Errorf("%w: owner delta has %d indexes and %d owners",
			transport.ErrMalformed, len(wire.Changed), len(wire.NewOwners))
	}
	owners := append([]int(nil), prev.Owners...)
	work := append([]float64(nil), prev.Work...)
	var add, del []int
	last := -1
	for k, ci := range wire.Changed {
		i, no := int(ci), int(wire.NewOwners[k])
		if i <= last || i >= len(owners) {
			return nil, fmt.Errorf("%w: owner delta index %d not ascending within [0,%d)",
				transport.ErrMalformed, i, len(owners))
		}
		if no < 0 || no >= len(work) {
			return nil, fmt.Errorf("%w: owner delta owner %d outside [0,%d)",
				transport.ErrMalformed, no, len(work))
		}
		last = i
		oo := owners[i]
		if oo == no {
			continue
		}
		w := partition.CellWork(prev.Boxes[i])
		work[oo] -= w
		work[no] += w
		owners[i] = no
		if oo == me {
			del = append(del, i)
		}
		if no == me {
			add = append(add, i)
		}
	}
	a := &partition.Assignment{
		Boxes:  prev.Boxes,
		Owners: owners,
		Work:   work,
		Ideal:  make([]float64, len(work)),
	}
	return &asnView{Assignment: a, mine: mergeMine(prev.mine, add, del)}, nil
}

// mergeMine merges sorted additions into and removes sorted deletions from
// a sorted index list, allocating only when membership changed.
func mergeMine(mine, add, del []int) []int {
	if len(add) == 0 && len(del) == 0 {
		return mine
	}
	out := make([]int, 0, len(mine)+len(add)-len(del))
	ai, di := 0, 0
	for _, m := range mine {
		for ai < len(add) && add[ai] < m {
			out = append(out, add[ai])
			ai++
		}
		if di < len(del) && del[di] == m {
			di++
			continue
		}
		out = append(out, m)
	}
	out = append(out, add[ai:]...)
	return out
}

// finalizeSPMD fills the result's owned boxes, L1 check sum, and patch map.
// Boxes are visited in sorted order so the L1 float accumulation is
// deterministic across runs (map iteration order would perturb the last ULP).
func finalizeSPMD(res *SPMDResult, patches map[geom.Box]*amr.Patch) {
	for b := range patches {
		res.OwnedBoxes = append(res.OwnedBoxes, b)
	}
	res.OwnedBoxes.SortBy(func(geom.Box) int64 { return 0 })
	for _, b := range res.OwnedBoxes {
		p := patches[b]
		sum := 0.0
		p.EachInterior(func(pt geom.Point) { sum += math.Abs(p.At(0, pt)) })
		res.L1Sum += sum
	}
	res.Patches = patches
}

// stepPatch advances one owned patch by dt into its spare double buffer and
// retires the current patch as the next spare. Halos of the spare are stale
// but every halo cell is rewritten by the next exchange (outflow covers the
// whole shell before copies land), so reuse is bit-exact with fresh
// zero-filled patches.
func stepPatch(k solver.Kernel, g solver.Grid, patches, spares map[geom.Box]*amr.Patch, b geom.Box, dt float64) {
	p := patches[b]
	next := spares[b]
	if next == nil {
		next = amr.NewPatch(b, p.Ghost, p.NumFields)
	}
	k.Step(next, p, g, dt)
	patches[b] = next
	spares[b] = p
}

// encodeAssignment chooses the wire form: owner deltas relative to the
// standing assignment when the repartition kept the box list (the steady
// state — repartitions move ownership, not the tiling), the full table
// otherwise.
func encodeAssignment(prev *asnView, a *partition.Assignment) wireAssignment {
	if prev == nil || !prev.Boxes.Equal(a.Boxes) {
		return wireAssignment{Boxes: a.Boxes, Owners: a.Owners}
	}
	w := wireAssignment{Delta: true}
	for i, o := range a.Owners {
		if o != prev.Owners[i] {
			w.Changed = append(w.Changed, int32(i))
			w.NewOwners = append(w.NewOwners, int32(o))
		}
	}
	return w
}

// extract serializes the values of region (all fields) from a patch.
func extract(p *amr.Patch, region geom.Box) []float64 {
	return extractInto(make([]float64, 0, int(region.Cells())*p.NumFields), p, region)
}

// extractInto is extract writing into dst's capacity (dst is truncated
// first), so steady-state callers can reuse one scratch slice.
func extractInto(dst []float64, p *amr.Patch, region geom.Box) []float64 {
	return extractAppend(dst[:0], p, region)
}

// extractAppend appends region's values (all fields) to dst, for packing
// several regions into one coalesced buffer.
func extractAppend(dst []float64, p *amr.Patch, region geom.Box) []float64 {
	for f := 0; f < p.NumFields; f++ {
		forEachCell(region, func(pt geom.Point) {
			dst = append(dst, p.At(f, pt))
		})
	}
	return dst
}

// apply writes serialized region values into a patch.
func apply(p *amr.Patch, region geom.Box, data []float64) error {
	want := int(region.Cells()) * p.NumFields
	if len(data) != want {
		return fmt.Errorf("engine: region payload has %d values, want %d", len(data), want)
	}
	i := 0
	for f := 0; f < p.NumFields; f++ {
		forEachCell(region, func(pt geom.Point) {
			p.Set(f, pt, data[i])
			i++
		})
	}
	return nil
}

// commScratch pools one rank's communication buffers: pack/unpack scratch
// shared by the halo exchange, the migration path, and plan rebuilds, so the
// steady-state loop and repeated repartitions allocate nothing for
// communication. The receive-side buffers are separate twins because a
// coalesced receive may decode while the send-side buffers still hold the
// frame being packed.
type commScratch struct {
	floats  []float64
	bytes   []byte
	regions []transport.FrameRegion

	rfloats  []float64
	rregions []transport.FrameRegion

	// query is the spatial-index result scratch for plan building and
	// redistribution.
	query []int

	// indexes caches uniform-grid spatial indexes across plan rebuilds, so a
	// rank pays the O(total boxes) index construction only when the tiling
	// actually changes, not on every repartition.
	indexes indexCache

	// workers is the intra-rank fan-out width (SPMDConfig.Workers): plan
	// construction and coalesced frame pack/unpack chunk across this many
	// workers when > 1. The zero value keeps every path serial, so a raw
	// commScratch{} (tests, benchmarks, recovery helpers) behaves exactly as
	// before the pool existed.
	workers int

	// spanFloats/spanRegions/spanBytes are the per-peer-span twins of
	// floats/regions/bytes used by the parallel frame packer — one private
	// buffer set per concurrently packed span, pooled across iterations.
	spanFloats  [][]float64
	spanRegions [][]transport.FrameRegion
	spanBytes   [][]byte

	// offsets/applyErrs are the parallel unpacker's pooled scratch: serial
	// prefix-sum frame offsets, then one error slot per concurrently applied
	// region.
	offsets   []int
	applyErrs []error

	// om is the rank's metric handle set and rec its span recorder (both
	// nil when observability is off). They live on the scratch because the
	// scratch already threads through every communication path. tcbuf is
	// the pooled wire context the frame packers point AppendFrameCtx at,
	// keeping the traced send path allocation-free.
	om    *spmdObs
	rec   *obs.Recorder
	tcbuf transport.TraceCtx
}

// frameCtx returns the wire trace context for the rank's current (epoch,
// iter) — SendNS is stamped later, at the actual send instant, via
// transport.StampTraceCtx — or nil when the rank writes no span log. Not
// safe for concurrent calls; parallel packers call it once and share the
// result.
func (sc *commScratch) frameCtx() *transport.TraceCtx {
	if !sc.rec.Traced() {
		return nil
	}
	e, i := sc.rec.Pos()
	sc.tcbuf = transport.TraceCtx{Iter: i, Epoch: e}
	return &sc.tcbuf
}

// traceStamp patches the frame's SendNS to now and returns the stamp (0 when
// the rank writes no span log). Must run before ep.Send: transports may copy
// the buffer.
func (sc *commScratch) traceStamp(frame []byte) int64 {
	if !sc.rec.Traced() {
		return 0
	}
	ns := sc.rec.Now()
	transport.StampTraceCtx(frame, ns)
	return ns
}

// spanScratch returns n pooled per-span buffer sets, growing the pools on
// demand (repartitions can change the peer count).
func (sc *commScratch) spanScratch(n int) {
	for len(sc.spanFloats) < n {
		sc.spanFloats = append(sc.spanFloats, nil)
		sc.spanRegions = append(sc.spanRegions, nil)
		sc.spanBytes = append(sc.spanBytes, nil)
	}
}

// chunkRange splits [0, n) into w contiguous chunks and returns chunk c's
// bounds. Contiguous chunks keep per-chunk output in global index order, so
// concatenating chunk results in chunk order reproduces the serial order.
func chunkRange(n, w, c int) (lo, hi int) {
	return n * c / w, n * (c + 1) / w
}

// indexCache keeps the two most recent uniform-grid indexes keyed by
// box-list content. Two slots cover the repartition access pattern — ghost
// plan over the old tiling, migration plan over old and new, ghost plan over
// the new — so the steady state never rebuilds an index it already holds.
// A pointer fast path catches aliased lists (owner deltas keep the box
// slice), falling back to content comparison for freshly decoded copies.
type indexCache struct {
	keys [2]geom.BoxList
	idxs [2]*geom.Index
}

// get returns the cached index for boxes, building and caching one on miss.
func (c *indexCache) get(boxes geom.BoxList) *geom.Index {
	for s := 0; s < 2; s++ {
		k := c.keys[s]
		if c.idxs[s] == nil || len(k) != len(boxes) {
			continue
		}
		if (len(k) > 0 && &k[0] == &boxes[0]) || k.Equal(boxes) {
			if s == 1 {
				c.keys[0], c.keys[1] = c.keys[1], c.keys[0]
				c.idxs[0], c.idxs[1] = c.idxs[1], c.idxs[0]
			}
			return c.idxs[0]
		}
	}
	idx := geom.NewIndex(boxes)
	c.keys[1], c.idxs[1] = c.keys[0], c.idxs[0]
	c.keys[0], c.idxs[0] = boxes, idx
	return idx
}

// ghostSend is one outgoing remote halo region: src is the owned source
// patch, region the clipped cells inside the receiver's halo. dstIdx/srcIdx
// are the boxes' global indexes in the shared assignment — the coalesced
// frame headers that let the receiver validate region order.
type ghostSend struct {
	dstIdx, srcIdx int
	src            geom.Box
	region         geom.Box
	to             int
}

// ghostRecv is one incoming remote halo region for owned patch dst.
type ghostRecv struct {
	dstIdx, srcIdx int
	dst            geom.Box
	region         geom.Box
	from           int
}

// peerSpan is a contiguous run of plan entries sharing one peer rank; the
// whole run travels as a single framed message under tag.
type peerSpan struct {
	rank   int
	lo, hi int
	tag    string
}

// ghostPlan is one rank's precomputed per-iteration halo exchange for a
// fixed assignment: remote sends and receives (sorted by peer rank, then by
// global (dst, src) box index so sender and receiver agree on frame region
// order), same-rank overlap copy pairs, and the owned boxes classified as
// interior (halo fully local — can step while remote data is in flight) vs
// boundary (must wait for at least one receive).
//
// Every peer rank exchanges exactly ONE framed message per iteration under
// a fixed per-epoch tag: the transport inbox is FIFO per (from, tag), so a
// rank running ahead simply queues behind the receiver's earlier iteration.
type ghostPlan struct {
	sends     []ghostSend
	recvs     []ghostRecv
	sendPeers []peerSpan
	recvPeers []peerSpan
	locals    [][2]geom.Box // (dst, src) owned pairs whose halos overlap
	interior  []geom.Box
	boundary  []geom.Box
	sc        *commScratch
}

// buildGhostPlan derives rank me's exchange plan — and only rank me's —
// from the shared assignment. prefix namespaces the tags: fault-tolerant
// runs pass an epoch prefix so messages from a rolled-back execution cannot
// collide with the replay. The plan visits only me's boxes (the view's mine
// list) and finds their neighbors through the cached uniform-grid index, so
// per-rank plan cost scales with the rank's own boxes and their neighbor
// count, not with the global box total; growing by the ghost width is
// symmetric (grown(a) meets b iff grown(b) meets a), so one pass yields
// sends, receives, and local copies alike. centralGhostPlans is the
// retained global-pass twin; both must stay bit-identical per rank.
func buildGhostPlan(v *asnView, me, ghost int, prefix string, sc *commScratch) *ghostPlan {
	if sc == nil {
		sc = &commScratch{}
	}
	a := v.Assignment
	pl := &ghostPlan{sc: sc}
	idx := sc.indexes.get(a.Boxes)
	needsRemote := map[geom.Box]bool{}
	if w := sc.workers; w > 1 && len(v.mine) > 1 {
		// Chunked fan-out: contiguous chunks of the mine list, each worker
		// appending to private buckets with its own query scratch (the index
		// itself is read-only). Concatenating buckets in chunk order exactly
		// reproduces the serial append order, and finish()'s canonical sort
		// over unique keys is order-insensitive anyway.
		if w > len(v.mine) {
			w = len(v.mine)
		}
		type ghostPart struct {
			sends  []ghostSend
			recvs  []ghostRecv
			locals [][2]geom.Box
			remote []geom.Box
		}
		parts := make([]ghostPart, w)
		parallel.For(w, w, func(c int) {
			lo, hi := chunkRange(len(v.mine), w, c)
			var qs geom.QueryScratch
			var hits []int
			p := &parts[c]
			for _, i := range v.mine[lo:hi] {
				bi := a.Boxes[i]
				grown := bi.Grow(ghost)
				hits = idx.QueryWith(&qs, grown, hits)
				hadRemote := false
				for _, j := range hits {
					if j == i {
						continue
					}
					bj := a.Boxes[j]
					oj := a.Owners[j]
					if oj == me {
						p.locals = append(p.locals, [2]geom.Box{bi, bj})
						continue
					}
					p.recvs = append(p.recvs, ghostRecv{
						dstIdx: i, srcIdx: j, dst: bi, region: grown.Intersect(bj), from: oj,
					})
					hadRemote = true
					p.sends = append(p.sends, ghostSend{
						dstIdx: j, srcIdx: i, src: bi, region: bj.Grow(ghost).Intersect(bi), to: oj,
					})
				}
				if hadRemote {
					p.remote = append(p.remote, bi)
				}
			}
		})
		for _, p := range parts {
			pl.sends = append(pl.sends, p.sends...)
			pl.recvs = append(pl.recvs, p.recvs...)
			pl.locals = append(pl.locals, p.locals...)
			for _, b := range p.remote {
				needsRemote[b] = true
			}
		}
	} else {
		hits := sc.query
		for _, i := range v.mine {
			bi := a.Boxes[i]
			grown := bi.Grow(ghost)
			hits = idx.Query(grown, hits)
			for _, j := range hits {
				if j == i {
					continue
				}
				bj := a.Boxes[j]
				oj := a.Owners[j]
				if oj == me {
					pl.locals = append(pl.locals, [2]geom.Box{bi, bj})
					continue
				}
				// bj's owner sends me my halo cells grown(bi)∩bj ...
				pl.recvs = append(pl.recvs, ghostRecv{
					dstIdx: i, srcIdx: j, dst: bi, region: grown.Intersect(bj), from: oj,
				})
				needsRemote[bi] = true
				// ... and symmetrically I feed bj's halo from bi.
				pl.sends = append(pl.sends, ghostSend{
					dstIdx: j, srcIdx: i, src: bi, region: bj.Grow(ghost).Intersect(bi), to: oj,
				})
			}
		}
		sc.query = hits
	}
	pl.finish(prefix)
	for _, i := range v.mine {
		b := a.Boxes[i]
		if needsRemote[b] {
			pl.boundary = append(pl.boundary, b)
		} else {
			pl.interior = append(pl.interior, b)
		}
	}
	return pl
}

// finish canonicalizes a ghost plan: sends and receives sorted by (peer,
// dst, src) — keys are unique within a plan, so the order is total — and
// contiguous per-peer spans derived for the coalesced frames. Shared by the
// distributed and centralized builders so both paths agree on wire order by
// construction.
func (pl *ghostPlan) finish(prefix string) {
	sort.Slice(pl.sends, func(x, y int) bool {
		sx, sy := &pl.sends[x], &pl.sends[y]
		if sx.to != sy.to {
			return sx.to < sy.to
		}
		if sx.dstIdx != sy.dstIdx {
			return sx.dstIdx < sy.dstIdx
		}
		return sx.srcIdx < sy.srcIdx
	})
	sort.Slice(pl.recvs, func(x, y int) bool {
		rx, ry := &pl.recvs[x], &pl.recvs[y]
		if rx.from != ry.from {
			return rx.from < ry.from
		}
		if rx.dstIdx != ry.dstIdx {
			return rx.dstIdx < ry.dstIdx
		}
		return rx.srcIdx < ry.srcIdx
	})
	coalescedTag := prefix + "gx"
	for lo := 0; lo < len(pl.sends); {
		hi := lo
		for hi < len(pl.sends) && pl.sends[hi].to == pl.sends[lo].to {
			hi++
		}
		pl.sendPeers = append(pl.sendPeers, peerSpan{rank: pl.sends[lo].to, lo: lo, hi: hi, tag: coalescedTag})
		lo = hi
	}
	for lo := 0; lo < len(pl.recvs); {
		hi := lo
		for hi < len(pl.recvs) && pl.recvs[hi].from == pl.recvs[lo].from {
			hi++
		}
		pl.recvPeers = append(pl.recvPeers, peerSpan{rank: pl.recvs[lo].from, lo: lo, hi: hi, tag: coalescedTag})
		lo = hi
	}
}

// ghostPlanAt builds rank me's halo-exchange plan through the configured
// path — the distributed per-rank builder by default, the centralized
// global-pass oracle under CentralPlans — timed as a plan span.
func (c SPMDConfig) ghostPlanAt(v *asnView, me, size, ghost int, prefix string, sc *commScratch) *ghostPlan {
	sp := sc.rec.Span(obs.PhasePlan)
	defer sp.End()
	if c.CentralPlans {
		pl := centralGhostPlans(v.Assignment, size, ghost, prefix)[me]
		pl.sc = sc
		return pl
	}
	return buildGhostPlan(v, me, ghost, prefix, sc)
}

// frameRegion builds the wire header for one packed region.
func frameRegion(dstIdx, srcIdx int, region geom.Box, count int) transport.FrameRegion {
	fr := transport.FrameRegion{Dst: uint32(dstIdx), Src: uint32(srcIdx), Count: uint32(count)}
	for d := 0; d < geom.MaxDim; d++ {
		fr.Lo[d] = int32(region.Lo[d])
		fr.Hi[d] = int32(region.Hi[d])
	}
	return fr
}

// checkFrameRegion validates a received frame header against the entry the
// local plan expects at that position, so a sender/receiver plan desync
// fails loudly instead of applying data to the wrong cells.
func checkFrameRegion(fr transport.FrameRegion, dstIdx, srcIdx int, region geom.Box) error {
	if int(fr.Dst) != dstIdx || int(fr.Src) != srcIdx {
		return fmt.Errorf("engine: frame region (box %d <- %d) does not match plan (box %d <- %d)",
			fr.Dst, fr.Src, dstIdx, srcIdx)
	}
	for d := 0; d < geom.MaxDim; d++ {
		if int(fr.Lo[d]) != region.Lo[d] || int(fr.Hi[d]) != region.Hi[d] {
			return fmt.Errorf("engine: frame region (box %d <- %d) bounds %v..%v do not match plan %v",
				fr.Dst, fr.Src, fr.Lo, fr.Hi, region)
		}
	}
	return nil
}

// postSends runs the non-blocking half of the halo exchange: outflow
// fallback over every owned halo, remote region sends, and same-rank copies.
// After it returns, every interior-class patch has a complete halo; boundary
// patches still await finishRecvs. All regions bound for one peer leave as
// a single framed message.
func (pl *ghostPlan) postSends(ep transport.Endpoint, patches map[geom.Box]*amr.Patch, res *SPMDResult) error {
	for _, b := range pl.interior {
		solver.ApplyOutflowBC(patches[b])
	}
	for _, b := range pl.boundary {
		solver.ApplyOutflowBC(patches[b])
	}
	sc := pl.sc
	if w := sc.workers; w > 1 && len(pl.sendPeers) > 1 {
		// Pack every peer's frame concurrently into pooled per-span buffers,
		// then send serially in span order — identical bytes and identical
		// wire order to the serial packer.
		spans := pl.sendPeers
		sc.spanScratch(len(spans))
		tc := sc.frameCtx()
		parallel.For(w, len(spans), func(si int) {
			span := spans[si]
			ksp := sc.rec.Span(obs.PhasePack)
			fl, rg := sc.spanFloats[si][:0], sc.spanRegions[si][:0]
			for _, s := range pl.sends[span.lo:span.hi] {
				n0 := len(fl)
				fl = extractAppend(fl, patches[s.src], s.region)
				rg = append(rg, frameRegion(s.dstIdx, s.srcIdx, s.region, len(fl)-n0))
			}
			sc.spanBytes[si] = transport.AppendFrameCtx(sc.spanBytes[si][:0], rg, fl, tc)
			sc.spanFloats[si], sc.spanRegions[si] = fl, rg
			ksp.End()
		})
		for si, span := range spans {
			b := sc.spanBytes[si]
			ns := sc.traceStamp(b)
			if err := ep.Send(span.rank, span.tag, b); err != nil {
				return err
			}
			res.BytesSent += int64(len(b))
			res.MsgsSent++
			sc.om.peerSent(span.rank, len(b))
			sc.rec.Send(span.rank, obs.KindHalo, len(b), ns)
		}
	} else {
		for _, span := range pl.sendPeers {
			ksp := sc.rec.Span(obs.PhasePack)
			sc.floats = sc.floats[:0]
			sc.regions = sc.regions[:0]
			for _, s := range pl.sends[span.lo:span.hi] {
				n0 := len(sc.floats)
				sc.floats = extractAppend(sc.floats, patches[s.src], s.region)
				sc.regions = append(sc.regions, frameRegion(s.dstIdx, s.srcIdx, s.region, len(sc.floats)-n0))
			}
			sc.bytes = transport.AppendFrameCtx(sc.bytes[:0], sc.regions, sc.floats, sc.frameCtx())
			ksp.End()
			ns := sc.traceStamp(sc.bytes)
			if err := ep.Send(span.rank, span.tag, sc.bytes); err != nil {
				return err
			}
			res.BytesSent += int64(len(sc.bytes))
			res.MsgsSent++
			sc.om.peerSent(span.rank, len(sc.bytes))
			sc.rec.Send(span.rank, obs.KindHalo, len(sc.bytes), ns)
		}
	}
	for _, pair := range pl.locals {
		amr.CopyOverlap(patches[pair[0]], patches[pair[1]])
	}
	return nil
}

// finishRecvs blocks until every remote halo region has arrived and applies
// them; boundary patches are complete afterwards. Regions from distinct
// sources are disjoint, so apply order cannot affect the result. Frames are
// validated region by region against the plan.
func (pl *ghostPlan) finishRecvs(ep transport.Endpoint, patches map[geom.Box]*amr.Patch, res *SPMDResult) error {
	sc := pl.sc
	for _, span := range pl.recvPeers {
		wsp := sc.rec.WaitSpan(obs.PhaseHaloWait, span.rank)
		payload, err := ep.Recv(span.rank, span.tag)
		if err != nil {
			return err
		}
		res.MsgsRecvd++
		var tc transport.TraceCtx
		var traced bool
		sc.rregions, sc.rfloats, tc, traced, err = transport.DecodeFrameCtx(payload, sc.rregions, sc.rfloats)
		if err != nil {
			return err
		}
		if traced {
			sc.rec.Recv(span.rank, obs.KindHalo, len(payload), tc.Epoch, tc.Iter, tc.SendNS)
			wsp.EndGated(tc.SendNS)
		} else {
			sc.rec.RecvUntraced(span.rank, obs.KindHalo, len(payload))
			wsp.End()
		}
		usp := sc.rec.Span(obs.PhaseUnpack)
		if len(sc.rregions) != span.hi-span.lo {
			return fmt.Errorf("engine: rank %d sent %d halo regions, plan expects %d",
				span.rank, len(sc.rregions), span.hi-span.lo)
		}
		if w, n := sc.workers, span.hi-span.lo; w > 1 && n > 1 {
			// Validate headers and prefix-sum the frame offsets serially
			// (cheap), then apply regions concurrently: regions of one frame
			// cover pairwise-disjoint cells (distinct source boxes are
			// disjoint), so the writes never touch the same cell. Errors are
			// surfaced in index order.
			if cap(sc.offsets) < n {
				sc.offsets = make([]int, n)
			}
			offs := sc.offsets[:n]
			off := 0
			for i, r := range pl.recvs[span.lo:span.hi] {
				fr := sc.rregions[i]
				if err := checkFrameRegion(fr, r.dstIdx, r.srcIdx, r.region); err != nil {
					return err
				}
				offs[i] = off
				off += int(fr.Count)
			}
			if cap(sc.applyErrs) < n {
				sc.applyErrs = make([]error, n)
			}
			errs := sc.applyErrs[:n]
			parallel.For(w, n, func(i int) {
				r := &pl.recvs[span.lo+i]
				cnt := int(sc.rregions[i].Count)
				errs[i] = apply(patches[r.dst], r.region, sc.rfloats[offs[i]:offs[i]+cnt])
			})
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			usp.End()
			continue
		}
		off := 0
		for i, r := range pl.recvs[span.lo:span.hi] {
			fr := sc.rregions[i]
			if err := checkFrameRegion(fr, r.dstIdx, r.srcIdx, r.region); err != nil {
				return err
			}
			n := int(fr.Count)
			if err := apply(patches[r.dst], r.region, sc.rfloats[off:off+n]); err != nil {
				return err
			}
			off += n
		}
		usp.End()
	}
	return nil
}

// migRegion is one region of patch data changing hands in a redistribution.
type migRegion struct {
	dstIdx, srcIdx int
	dst, src       geom.Box
	region         geom.Box
	peer           int
}

// migPlan is one rank's precomputed redistribution: the regions it ships
// out, the regions it awaits, and the regions a repartition let it keep in
// place. Sends and receives are sorted by (peer, dst, src) — unique keys —
// so the distributed and centralized builders agree on wire order.
type migPlan struct {
	sends    []migRegion
	recvs    []migRegion
	retained []migRegion
}

// finish canonicalizes the plan order (see migPlan).
func (mp *migPlan) finish() {
	sortMig(mp.sends)
	sortMig(mp.recvs)
	sortMig(mp.retained)
}

// sortMig orders migration regions by (peer, dst, src).
func sortMig(ms []migRegion) {
	sort.Slice(ms, func(x, y int) bool {
		a, b := &ms[x], &ms[y]
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		if a.dstIdx != b.dstIdx {
			return a.dstIdx < b.dstIdx
		}
		return a.srcIdx < b.srcIdx
	})
}

// buildMigPlan derives rank me's migration plan — and only rank me's — for
// an old→next repartition. Two passes over the view's own boxes: my new
// boxes probed against the old tiling classify inbound regions (kept in
// place when I already owned the data, received otherwise), and my old
// boxes probed against the new tiling find outbound regions. Both probes go
// through the cached indexes, so per-rank cost scales with the rank's own
// boxes, not the global totals. centralMigPlans is the retained global-pass
// twin; both must stay bit-identical per rank.
func buildMigPlan(old, next *asnView, me int, sc *commScratch) migPlan {
	var mp migPlan
	if w := sc.workers; w > 1 && len(next.mine)+len(old.mine) > 1 {
		// Both indexes are fetched up front (the two-slot cache holds them
		// together) and only read inside the workers; buckets concatenate in
		// chunk order and finish()'s canonical sort over unique keys makes
		// the plan independent of append order regardless.
		oldIdx := sc.indexes.get(old.Boxes)
		nextIdx := sc.indexes.get(next.Boxes)
		type migPart struct{ sends, recvs, retained []migRegion }
		parts := make([]migPart, w)
		parallel.For(w, w, func(c int) {
			var qs geom.QueryScratch
			var hits []int
			p := &parts[c]
			lo, hi := chunkRange(len(next.mine), w, c)
			for _, i := range next.mine[lo:hi] {
				nb := next.Boxes[i]
				hits = oldIdx.QueryWith(&qs, nb, hits)
				for _, j := range hits {
					ob := old.Boxes[j]
					m := migRegion{dstIdx: i, srcIdx: j, dst: nb, src: ob, region: nb.Intersect(ob)}
					if old.Owners[j] == me {
						m.peer = me
						p.retained = append(p.retained, m)
					} else {
						m.peer = old.Owners[j]
						p.recvs = append(p.recvs, m)
					}
				}
			}
			lo, hi = chunkRange(len(old.mine), w, c)
			for _, j := range old.mine[lo:hi] {
				ob := old.Boxes[j]
				hits = nextIdx.QueryWith(&qs, ob, hits)
				for _, i := range hits {
					if next.Owners[i] == me {
						continue // kept or stitched locally by the first pass
					}
					nb := next.Boxes[i]
					p.sends = append(p.sends, migRegion{
						dstIdx: i, srcIdx: j, dst: nb, src: ob,
						region: nb.Intersect(ob), peer: next.Owners[i],
					})
				}
			}
		})
		for _, p := range parts {
			mp.sends = append(mp.sends, p.sends...)
			mp.recvs = append(mp.recvs, p.recvs...)
			mp.retained = append(mp.retained, p.retained...)
		}
		mp.finish()
		return mp
	}
	oldIdx := sc.indexes.get(old.Boxes)
	hits := sc.query
	for _, i := range next.mine {
		nb := next.Boxes[i]
		hits = oldIdx.Query(nb, hits)
		for _, j := range hits {
			ob := old.Boxes[j]
			m := migRegion{dstIdx: i, srcIdx: j, dst: nb, src: ob, region: nb.Intersect(ob)}
			if old.Owners[j] == me {
				m.peer = me
				mp.retained = append(mp.retained, m)
			} else {
				m.peer = old.Owners[j]
				mp.recvs = append(mp.recvs, m)
			}
		}
	}
	nextIdx := sc.indexes.get(next.Boxes)
	for _, j := range old.mine {
		ob := old.Boxes[j]
		hits = nextIdx.Query(ob, hits)
		for _, i := range hits {
			if next.Owners[i] == me {
				continue // kept or stitched locally by the first pass
			}
			nb := next.Boxes[i]
			mp.sends = append(mp.sends, migRegion{
				dstIdx: i, srcIdx: j, dst: nb, src: ob,
				region: nb.Intersect(ob), peer: next.Owners[i],
			})
		}
	}
	sc.query = hits
	mp.finish()
	return mp
}

// redistribute moves patch interiors to their new owners after a
// repartition. New-assignment boxes may be split differently than the old
// ones, so transfers cover every overlapping (old, new) pair. A box whose
// geometry and owner both survive keeps its patch untouched (its halo is
// stale, but every halo cell is rewritten by the next exchange before use,
// the same argument that lets stepPatch reuse spares). All regions bound for
// one peer travel as a single framed message. central selects the
// global-pass oracle plan builder instead of the per-rank one.
func redistribute(ep transport.Endpoint, old, next *asnView, patches map[geom.Box]*amr.Patch, k solver.Kernel, iter int, res *SPMDResult, prefix string, central bool, sc *commScratch) (map[geom.Box]*amr.Patch, error) {
	if sc == nil {
		sc = &commScratch{}
	}
	me := ep.Rank()
	psp := sc.rec.Span(obs.PhasePlan)
	var mp migPlan
	if central {
		mp = centralMigPlans(old.Assignment, next.Assignment, ep.Size())[me]
	} else {
		mp = buildMigPlan(old, next, me, sc)
	}
	psp.End()
	msp := sc.rec.Span(obs.PhaseMigrate)
	out := make(map[geom.Box]*amr.Patch, len(patches))
	bytesPerCell := int64(k.NumFields()) * 8
	for _, m := range mp.retained {
		res.RetainedBytes += m.region.Cells() * bytesPerCell
		if m.dst.Equal(m.src) {
			// Geometry and owner both survived: old boxes are disjoint, so
			// nothing else overlaps this box and the patch moves wholesale.
			out[m.dst] = patches[m.src]
			continue
		}
		p := out[m.dst]
		if p == nil {
			p = amr.NewPatch(m.dst, k.Ghost(), k.NumFields())
			out[m.dst] = p
		}
		sc.floats = extractInto(sc.floats, patches[m.src], m.region)
		if err := apply(p, m.region, sc.floats); err != nil {
			return nil, err
		}
	}
	for _, m := range mp.recvs {
		if out[m.dst] == nil {
			out[m.dst] = amr.NewPatch(m.dst, k.Ghost(), k.NumFields())
		}
	}
	msp.End()
	sends, recvs := mp.sends, mp.recvs
	tag := fmt.Sprintf("%srx%d", prefix, iter)
	for lo := 0; lo < len(sends); {
		hi := lo
		for hi < len(sends) && sends[hi].peer == sends[lo].peer {
			hi++
		}
		ksp := sc.rec.Span(obs.PhasePack)
		sc.floats = sc.floats[:0]
		sc.regions = sc.regions[:0]
		for _, m := range sends[lo:hi] {
			n0 := len(sc.floats)
			sc.floats = extractAppend(sc.floats, patches[m.src], m.region)
			sc.regions = append(sc.regions, frameRegion(m.dstIdx, m.srcIdx, m.region, len(sc.floats)-n0))
			res.MigratedBytes += m.region.Cells() * bytesPerCell
		}
		sc.bytes = transport.AppendFrameCtx(sc.bytes[:0], sc.regions, sc.floats, sc.frameCtx())
		ksp.End()
		ns := sc.traceStamp(sc.bytes)
		if err := ep.Send(sends[lo].peer, tag, sc.bytes); err != nil {
			return nil, err
		}
		res.BytesSent += int64(len(sc.bytes))
		res.MsgsSent++
		sc.om.peerSent(sends[lo].peer, len(sc.bytes))
		sc.rec.Send(sends[lo].peer, obs.KindMig, len(sc.bytes), ns)
		lo = hi
	}
	for lo := 0; lo < len(recvs); {
		hi := lo
		for hi < len(recvs) && recvs[hi].peer == recvs[lo].peer {
			hi++
		}
		wsp := sc.rec.WaitSpan(obs.PhaseMigWait, recvs[lo].peer)
		payload, err := ep.Recv(recvs[lo].peer, tag)
		if err != nil {
			return nil, err
		}
		res.MsgsRecvd++
		var tc transport.TraceCtx
		var traced bool
		sc.rregions, sc.rfloats, tc, traced, err = transport.DecodeFrameCtx(payload, sc.rregions, sc.rfloats)
		if err != nil {
			return nil, err
		}
		if traced {
			sc.rec.Recv(recvs[lo].peer, obs.KindMig, len(payload), tc.Epoch, tc.Iter, tc.SendNS)
			wsp.EndGated(tc.SendNS)
		} else {
			sc.rec.RecvUntraced(recvs[lo].peer, obs.KindMig, len(payload))
			wsp.End()
		}
		if len(sc.rregions) != hi-lo {
			return nil, fmt.Errorf("engine: rank %d sent %d migration regions, plan expects %d",
				recvs[lo].peer, len(sc.rregions), hi-lo)
		}
		usp := sc.rec.Span(obs.PhaseUnpack)
		off := 0
		for i, m := range recvs[lo:hi] {
			fr := sc.rregions[i]
			if err := checkFrameRegion(fr, m.dstIdx, m.srcIdx, m.region); err != nil {
				return nil, err
			}
			n := int(fr.Count)
			if err := apply(out[m.dst], m.region, sc.rfloats[off:off+n]); err != nil {
				return nil, err
			}
			off += n
		}
		usp.End()
		lo = hi
	}
	return out, nil
}
