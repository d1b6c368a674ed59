package obs

import (
	"sort"
)

// Segment is one hop of a per-iteration critical path: on Rank, in Phase,
// over the aligned interval [Start, End). Peer ≥ 0 names the blocking peer
// for wait hops (the rank whose late send this interval waited on).
type Segment struct {
	Rank  int
	Phase string
	Peer  int
	Start int64
	End   int64
}

// Dur returns the segment length in ns.
func (s Segment) Dur() int64 { return s.End - s.Start }

// Cause is critical-path time aggregated by (rank, phase, blocking peer).
type Cause struct {
	Rank  int
	Phase string
	Peer  int
	NS    int64
	Frac  float64
}

// IterPath is the stitched critical path of one (epoch, iter): the global
// iteration window, the chronological hop chain, and the aggregated causes.
type IterPath struct {
	Epoch, Iter int
	Start, End  int64 // aligned ns, global
	Wall        int64
	Covered     int64 // chain time; ≈ Wall by construction
	Chain       []Segment
	Causes      []Cause // descending NS
}

// RankShare is one rank's share of all critical-path time, with wait hops
// charged to the blocking peer — the "who caused the slowdown" ranking.
type RankShare struct {
	Rank int
	NS   int64
	Frac float64
}

// Verdict is a deduplicated straggler-detector transition from the log.
type Verdict struct {
	Epoch, Iter int
	Target      int
	State       string
}

// Timeline is the stitched global view of a span log.
type Timeline struct {
	Ranks    []int
	Offsets  map[int]int64 // rank clock − reference clock (ns); subtracted to align
	RTTs     map[int]int64 // median heartbeat RTT of the edge that placed the rank
	Iters    []*IterPath
	Shares   []RankShare // descending, wait time charged to the blocking peer
	Verdicts []Verdict
	Skipped  int // malformed lines skipped by the reader
}

// rspan is an aligned span on one rank's timeline.
type rspan struct {
	ph     string
	epoch  int32
	iter   int32
	peer   int32
	ts     int64 // gating sender stamp (unaligned), 0 = none
	t0, t1 int64 // aligned
}

// Stitch assembles trace records into the global timeline: pairwise offset
// medians align the per-rank clocks (no global clock), spans group into
// (epoch, iter) windows, and a backward walk from each window's last
// finisher yields the critical path. skipped is carried through from
// ReadRecords for reporting. Records of rank < 0 (the single-process
// engine, which has no peers) are ignored, and the log is assumed to hold
// one SPMD group.
func Stitch(recs []Record, skipped int) *Timeline {
	tl := &Timeline{
		Offsets: map[int]int64{},
		RTTs:    map[int]int64{},
		Skipped: skipped,
	}

	rankSet := map[int]bool{}
	offSamples := map[[2]int][]int64{} // (r,p) → off estimates (p clock − r clock)
	rttSamples := map[[2]int][]int64{}
	verdictSeen := map[Verdict]bool{}
	for _, rec := range recs {
		if rec.R < 0 {
			continue
		}
		rankSet[rec.R] = true
		switch rec.K {
		case "o":
			k := [2]int{rec.R, rec.P}
			offSamples[k] = append(offSamples[k], rec.Off)
			rttSamples[k] = append(rttSamples[k], rec.RTT)
		case "g":
			v := Verdict{Epoch: rec.E, Iter: rec.I, Target: rec.Tgt, State: rec.St}
			if !verdictSeen[v] {
				verdictSeen[v] = true
				tl.Verdicts = append(tl.Verdicts, v)
			}
		}
	}
	for r := range rankSet {
		tl.Ranks = append(tl.Ranks, r)
	}
	sort.Ints(tl.Ranks)
	sort.Slice(tl.Verdicts, func(i, j int) bool {
		a, b := tl.Verdicts[i], tl.Verdicts[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Target < b.Target
	})

	resolveOffsets(tl, offSamples, rttSamples)

	// Per-rank aligned span lists plus prefix-max-t1 indexes (worker pack
	// spans overlap, so "latest started" is not always "latest running").
	byRank := map[int][]rspan{}
	for _, rec := range recs {
		if rec.K != "s" || rec.R < 0 {
			continue
		}
		base := tl.Offsets[rec.R]
		byRank[rec.R] = append(byRank[rec.R], rspan{
			ph: rec.Ph, epoch: int32(rec.E), iter: int32(rec.I),
			peer: int32(rec.P), ts: rec.TS,
			t0: rec.T0 - base, t1: rec.T1 - base,
		})
	}
	prefMax := map[int][]int{}
	for r, sps := range byRank {
		sort.Slice(sps, func(i, j int) bool { return sps[i].t0 < sps[j].t0 })
		byRank[r] = sps
		pm := make([]int, len(sps))
		for i := range sps {
			pm[i] = i
			if i > 0 && sps[pm[i-1]].t1 > sps[i].t1 {
				pm[i] = pm[i-1]
			}
		}
		prefMax[r] = pm
	}

	// Iteration windows.
	type iterKey struct{ e, i int32 }
	windows := map[iterKey]*IterPath{}
	lastRank := map[iterKey]int{}
	for r, sps := range byRank {
		for _, sp := range sps {
			k := iterKey{sp.epoch, sp.iter}
			w := windows[k]
			if w == nil {
				w = &IterPath{Epoch: int(sp.epoch), Iter: int(sp.iter), Start: sp.t0, End: sp.t1}
				windows[k] = w
				lastRank[k] = r
			}
			if sp.t0 < w.Start {
				w.Start = sp.t0
			}
			if sp.t1 > w.End {
				w.End = sp.t1
				lastRank[k] = r
			}
		}
	}
	for k, w := range windows {
		w.Wall = w.End - w.Start
		walk(w, lastRank[k], byRank, prefMax, tl.Offsets)
		tl.Iters = append(tl.Iters, w)
	}
	sort.Slice(tl.Iters, func(i, j int) bool {
		a, b := tl.Iters[i], tl.Iters[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		return a.Iter < b.Iter
	})

	// Straggler attribution across the whole run.
	share := map[int]int64{}
	var total int64
	for _, w := range tl.Iters {
		for _, seg := range w.Chain {
			blame := seg.Rank
			if seg.Peer >= 0 {
				blame = seg.Peer
			}
			share[blame] += seg.Dur()
			total += seg.Dur()
		}
	}
	for r, ns := range share {
		s := RankShare{Rank: r, NS: ns}
		if total > 0 {
			s.Frac = float64(ns) / float64(total)
		}
		tl.Shares = append(tl.Shares, s)
	}
	sort.Slice(tl.Shares, func(i, j int) bool {
		if tl.Shares[i].NS != tl.Shares[j].NS {
			return tl.Shares[i].NS > tl.Shares[j].NS
		}
		return tl.Shares[i].Rank < tl.Shares[j].Rank
	})
	return tl
}

// resolveOffsets turns pairwise offset samples into one offset per rank
// relative to the lowest rank of each connected component (BFS over the
// pair graph, medians per directed edge, both directions averaged when
// available). Ranks with no heartbeat path keep offset 0 — in particular
// the plain (non-FT) runner, whose in-process ranks share a clock anyway.
func resolveOffsets(tl *Timeline, offSamples, rttSamples map[[2]int][]int64) {
	type edge struct {
		to       int
		off, rtt int64
	}
	adj := map[int][]edge{}
	addEdge := func(a, b int, off, rtt int64) {
		adj[a] = append(adj[a], edge{to: b, off: off, rtt: rtt})
	}
	done := map[[2]int]bool{}
	for k, offs := range offSamples {
		a, b := k[0], k[1]
		una := [2]int{b, a}
		if done[k] || done[una] {
			continue
		}
		done[k] = true
		done[una] = true
		// θ(a,b) = b's clock − a's clock.
		theta := median(offs)
		rtt := median(rttSamples[k])
		if rev, ok := offSamples[una]; ok {
			theta = (theta - median(rev)) / 2
			rtt = (rtt + median(rttSamples[una])) / 2
		}
		addEdge(a, b, theta, rtt)
		addEdge(b, a, -theta, rtt)
	}
	visited := map[int]bool{}
	for _, root := range tl.Ranks {
		if visited[root] {
			continue
		}
		visited[root] = true
		tl.Offsets[root] = 0
		queue := []int{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur] {
				if visited[e.to] {
					continue
				}
				visited[e.to] = true
				tl.Offsets[e.to] = tl.Offsets[cur] + e.off
				tl.RTTs[e.to] = e.rtt
				queue = append(queue, e.to)
			}
		}
	}
}

func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// walk traces the critical path of window w backward from (rank, w.End)
// to w.Start, hopping to the blocking peer at the gating message's send
// time whenever the covering span is a gated wait. Every hop covers a
// non-empty interval and t strictly decreases, so the chain partitions
// [Start, End] exactly and attribution sums to the full wall-clock.
func walk(w *IterPath, rank int, byRank map[int][]rspan, prefMax map[int][]int, base map[int]int64) {
	t := w.End
	var chain []Segment
	emit := func(seg Segment) {
		if seg.End > seg.Start {
			chain = append(chain, seg)
		}
	}
	for steps := 0; t > w.Start && steps < 1<<20; steps++ {
		sps := byRank[rank]
		idx := sort.Search(len(sps), func(i int) bool { return sps[i].t0 >= t }) - 1
		if idx < 0 {
			emit(Segment{Rank: rank, Phase: PhaseUntracked, Peer: -1, Start: w.Start, End: t})
			t = w.Start
			break
		}
		sp := sps[prefMax[rank][idx]]
		if sp.t1 < t {
			// Nothing recorded on this rank over (sp.t1, t): idle.
			lo := sp.t1
			if lo < w.Start {
				lo = w.Start
			}
			emit(Segment{Rank: rank, Phase: PhaseIdle, Peer: -1, Start: lo, End: t})
			t = lo
			continue
		}
		lo := sp.t0
		if lo < w.Start {
			lo = w.Start
		}
		if sp.ts != 0 && sp.peer >= 0 {
			// Gated wait: hop to the blocking peer at its send time.
			sendG := sp.ts - base[int(sp.peer)]
			if sendG > lo && sendG < t {
				emit(Segment{Rank: rank, Phase: sp.ph, Peer: int(sp.peer), Start: sendG, End: t})
				t = sendG
				rank = int(sp.peer)
				continue
			}
		}
		peer := -1
		if sp.peer >= 0 {
			peer = int(sp.peer)
		}
		emit(Segment{Rank: rank, Phase: sp.ph, Peer: peer, Start: lo, End: t})
		t = lo
	}
	if t > w.Start {
		// Safety valve: the guard tripped; account the remainder.
		emit(Segment{Rank: rank, Phase: PhaseUntracked, Peer: -1, Start: w.Start, End: t})
	}
	// Reverse into chronological order and aggregate causes.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	w.Chain = chain
	type causeKey struct {
		rank int
		ph   string
		peer int
	}
	agg := map[causeKey]int64{}
	for _, seg := range chain {
		w.Covered += seg.Dur()
		agg[causeKey{seg.Rank, seg.Phase, seg.Peer}] += seg.Dur()
	}
	for k, ns := range agg {
		c := Cause{Rank: k.rank, Phase: k.ph, Peer: k.peer, NS: ns}
		if w.Wall > 0 {
			c.Frac = float64(ns) / float64(w.Wall)
		}
		w.Causes = append(w.Causes, c)
	}
	sort.Slice(w.Causes, func(i, j int) bool {
		a, b := w.Causes[i], w.Causes[j]
		if a.NS != b.NS {
			return a.NS > b.NS
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Phase < b.Phase
	})
}
