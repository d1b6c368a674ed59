package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRecorderJSONL exercises every record writer through the public API and
// proves the lenient reader gets the same data back.
func TestRecorderJSONL(t *testing.T) {
	var buf bytes.Buffer
	rt := New(Config{Seed: 1, Trace: &buf})
	r := rt.Recorder(3)

	r.SetPos(1, 42)
	sp := r.Span(PhaseCompute)
	sp.End()
	w := r.WaitSpan(PhaseHaloWait, 1)
	w.EndGated(999)
	r.Send(1, KindHalo, 128, 555)
	r.Recv(2, KindMig, 64, 0, 41, 777)
	r.RecvUntraced(2, KindHalo, 32)
	r.Verdict(2, "degraded")
	if err := rt.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	recs, skipped, err := ReadRecords(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d", err, skipped)
	}
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	if recs[0].K != "s" || recs[0].R != 3 || recs[0].Ph != "compute" || recs[0].E != 1 || recs[0].I != 42 {
		t.Errorf("span record = %+v", recs[0])
	}
	if recs[0].P != -1 {
		t.Errorf("plain span carries peer %d, want -1", recs[0].P)
	}
	if recs[0].T1 < recs[0].T0 || recs[0].T0 == 0 {
		t.Errorf("span timestamps t0=%d t1=%d", recs[0].T0, recs[0].T1)
	}
	if recs[1].Ph != "halo-wait" || recs[1].P != 1 || recs[1].TS != 999 {
		t.Errorf("gated wait record = %+v", recs[1])
	}
	if recs[2].K != "m" || recs[2].P != 1 || recs[2].Kd != KindHalo || recs[2].B != 128 || recs[2].TS != 555 {
		t.Errorf("send record = %+v", recs[2])
	}
	if recs[3].K != "v" || recs[3].P != 2 || recs[3].Kd != KindMig || recs[3].I != 41 || recs[3].TS != 777 {
		t.Errorf("recv record = %+v", recs[3])
	}
	if recs[4].K != "v" || recs[4].TS != 0 || recs[4].I != 42 {
		t.Errorf("untraced recv record = %+v", recs[4])
	}
	if recs[5].K != "g" || recs[5].Tgt != 2 || recs[5].St != "degraded" {
		t.Errorf("verdict record = %+v", recs[5])
	}
	// The same span calls fed the phase histograms.
	if rt.PhaseHistogram(PhaseCompute).Count() != 1 || rt.PhaseHistogram(PhaseHaloWait).Count() != 1 {
		t.Errorf("span records without histogram observations")
	}
}

// TestNilRecorder proves the nil-off contract: every method of a nil
// Recorder (and the zero Span it hands out) is a safe no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r != (*Runtime)(nil).Recorder(0) {
		t.Fatalf("nil Runtime must yield nil Recorder")
	}
	if r.Traced() {
		t.Fatalf("nil Recorder reports Traced")
	}
	r.SetPos(1, 2)
	if e, i := r.Pos(); e != 0 || i != 0 {
		t.Fatalf("nil Pos = (%d,%d)", e, i)
	}
	if r.Now() != 0 || r.HBDelta(1) != 0 {
		t.Fatalf("nil clock methods returned nonzero")
	}
	r.Span(PhaseCompute).End()
	r.WaitSpan(PhaseHaloWait, 1).EndGated(5)
	r.Send(1, KindHalo, 1, 1)
	r.Recv(1, KindHalo, 1, 0, 0, 0)
	r.RecvUntraced(1, KindHalo, 1)
	r.ObserveHeartbeat(1, 1, 1)
	r.Verdict(1, "x")
	if err := (*Runtime)(nil).Flush(); err != nil {
		t.Fatalf("nil flush: %v", err)
	}
}

// TestReadRecordsLenient proves a log whose final line was cut mid-write (a
// killed soak) is analyzed anyway, with the casualty counted, not fatal.
func TestReadRecordsLenient(t *testing.T) {
	in := `{"k":"s","r":0,"ph":"compute","e":0,"i":1,"t0":10,"t1":20}
not json at all
{"k":"m","r":0,"p":1,"kd":"h","e":0,"i":1,"b":4,"t":15}
{"bogus":"no kind"}

{"k":"s","r":1,"ph":"advance","e":0,"i":1,"t0":12,"t1"`
	recs, skipped, err := ReadRecords(strings.NewReader(in))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if skipped != 3 {
		t.Fatalf("skipped = %d, want 3 (garbage, kindless, truncated)", skipped)
	}
	if len(recs) != 2 || recs[0].K != "s" || recs[1].K != "m" {
		t.Fatalf("records = %+v", recs)
	}
}

// TestClockOffsetEstimate drives two recorders' heartbeat exchange with an
// injected 5ms skew and checks the estimator recovers it (flight time in
// process is microseconds, far under the tolerance).
func TestClockOffsetEstimate(t *testing.T) {
	var buf bytes.Buffer
	rt := New(Config{Seed: 1, Trace: &buf})
	const skew = int64(5_000_000)
	r0, r1 := rt.Recorder(0), rt.Recorder(1)
	r1.skew = skew

	// Several rounds: each rank observes the other's stamp plus the delta
	// the SENDER last measured for this receiver, as the FT heartbeat does.
	for round := 0; round < 5; round++ {
		r1.ObserveHeartbeat(0, r0.Now(), r0.HBDelta(1))
		r0.ObserveHeartbeat(1, r1.Now(), r1.HBDelta(0))
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, _, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var offs []Record
	for _, r := range recs {
		if r.K == "o" {
			offs = append(offs, r)
		}
	}
	if len(offs) == 0 {
		t.Fatalf("no offset records written")
	}
	tl := Stitch(recs, 0)
	got := tl.Offsets[1] - tl.Offsets[0]
	if diff := got - skew; diff < -1_000_000 || diff > 1_000_000 {
		t.Fatalf("estimated offset %d ns, want %d ± 1ms", got, skew)
	}
}

// TestStitchCriticalPath builds a hand-crafted two-rank iteration — rank 1
// computes late, rank 0 blocks on its halo — and checks the walk finds
// exactly that story: the path runs through rank 0's wait, jumps to rank 1
// at the gating send, and attribution covers the full window.
func TestStitchCriticalPath(t *testing.T) {
	recs := []Record{
		// rank 0: compute [0,100], halo-wait on rank 1 [100,500] gated by a
		// send stamped at 450, unpack+advance [500,550]
		{K: "s", R: 0, P: -1, Ph: "compute", E: 0, I: 7, T0: 0, T1: 100},
		{K: "s", R: 0, P: 1, Ph: "halo-wait", E: 0, I: 7, TS: 450, T0: 100, T1: 500},
		{K: "s", R: 0, P: -1, Ph: "advance", E: 0, I: 7, T0: 500, T1: 550},
		// rank 1: slow compute [0,440], pack [440,450], then done at 460
		{K: "s", R: 1, P: -1, Ph: "compute", E: 0, I: 7, T0: 0, T1: 440},
		{K: "s", R: 1, P: -1, Ph: "pack", E: 0, I: 7, T0: 440, T1: 450},
		{K: "s", R: 1, P: -1, Ph: "advance", E: 0, I: 7, T0: 450, T1: 460},
	}
	tl := Stitch(recs, 0)
	if len(tl.Iters) != 1 {
		t.Fatalf("got %d iteration windows, want 1", len(tl.Iters))
	}
	w := tl.Iters[0]
	if w.Epoch != 0 || w.Iter != 7 || w.Start != 0 || w.End != 550 {
		t.Fatalf("window = %+v", w)
	}
	if w.Covered != w.Wall {
		t.Fatalf("covered %d of wall %d", w.Covered, w.Wall)
	}
	// The chain must hop: rank1 compute/pack … → rank0 halo-wait (from the
	// gating stamp 450) → rank0 advance.
	var sawJump, sawWait bool
	for i, seg := range w.Chain {
		if seg.Rank == 0 && seg.Phase == "halo-wait" {
			sawWait = true
			if seg.Peer != 1 || seg.Start != 450 {
				t.Fatalf("wait segment = %+v", seg)
			}
			if i == 0 || w.Chain[i-1].Rank != 1 {
				t.Fatalf("wait segment not preceded by rank 1 work: %+v", w.Chain)
			}
			sawJump = true
		}
	}
	if !sawWait || !sawJump {
		t.Fatalf("no gated jump in chain: %+v", w.Chain)
	}
	// Rank 1 must own the bulk of the blame: its compute plus the charged
	// wait dwarf rank 0's own 150ns of work.
	if len(tl.Shares) == 0 || tl.Shares[0].Rank != 1 {
		t.Fatalf("shares = %+v, want rank 1 first", tl.Shares)
	}
	if tl.Shares[0].Frac < 0.7 {
		t.Fatalf("rank 1 share %.2f, want > 0.7", tl.Shares[0].Frac)
	}
}

// TestStitchIdleAndUntracked proves coverage is total even with gaps: time
// between spans synthesizes idle, time before any span synthesizes
// untracked, and Covered still equals Wall.
func TestStitchIdleAndUntracked(t *testing.T) {
	recs := []Record{
		{K: "s", R: 0, P: -1, Ph: "compute", E: 0, I: 1, T0: 0, T1: 40},
		// gap [40,70)
		{K: "s", R: 0, P: -1, Ph: "advance", E: 0, I: 1, T0: 70, T1: 100},
	}
	tl := Stitch(recs, 0)
	w := tl.Iters[0]
	if w.Covered != w.Wall {
		t.Fatalf("covered %d != wall %d", w.Covered, w.Wall)
	}
	var idle int64
	for _, seg := range w.Chain {
		if seg.Phase == PhaseIdle {
			idle += seg.Dur()
		}
	}
	if idle != 30 {
		t.Fatalf("idle = %d, want 30", idle)
	}
}

// TestStitchIgnoresEngineRank proves engine records (rank -1, no peers)
// open no iteration window and join no rank list, so a log holding both the
// engine and one SPMD group stitches to the group's timeline alone.
func TestStitchIgnoresEngineRank(t *testing.T) {
	recs := []Record{
		{K: "s", R: -1, P: -1, Ph: "sense", E: 0, I: 1, T0: 0, T1: 500},
		{K: "s", R: 0, P: -1, Ph: "compute", E: 0, I: 1, T0: 100, T1: 200},
	}
	tl := Stitch(recs, 0)
	if len(tl.Ranks) != 1 || tl.Ranks[0] != 0 {
		t.Fatalf("ranks = %v, want [0]", tl.Ranks)
	}
	if len(tl.Iters) != 1 || tl.Iters[0].Start != 100 || tl.Iters[0].End != 200 {
		t.Fatalf("windows = %+v, want one over [100,200]", tl.Iters)
	}
}

// TestStitchVerdictDedup proves replicated straggler verdicts (every rank
// records the same transition) collapse to one.
func TestStitchVerdictDedup(t *testing.T) {
	recs := []Record{
		{K: "g", R: 0, E: 1, I: 9, Tgt: 2, St: "quarantined"},
		{K: "g", R: 1, E: 1, I: 9, Tgt: 2, St: "quarantined"},
		{K: "g", R: 3, E: 1, I: 9, Tgt: 2, St: "quarantined"},
		{K: "g", R: 0, E: 1, I: 15, Tgt: 2, St: "normal"},
	}
	tl := Stitch(recs, 0)
	if len(tl.Verdicts) != 2 {
		t.Fatalf("verdicts = %+v, want 2 after dedup", tl.Verdicts)
	}
	if tl.Verdicts[0].Iter != 9 || tl.Verdicts[0].State != "quarantined" ||
		tl.Verdicts[1].Iter != 15 || tl.Verdicts[1].State != "normal" {
		t.Fatalf("verdicts = %+v", tl.Verdicts)
	}
}

// TestConcurrentRecording hammers one shared span log from many goroutines
// (the in-process SPMD shape) and checks every line survives intact — run
// under -race this is also the data-race proof for the locked writer.
func TestConcurrentRecording(t *testing.T) {
	var buf bytes.Buffer
	rt := New(Config{Seed: 1, Trace: &buf})
	const ranks, iters = 8, 50
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r := rt.Recorder(rank)
			for i := 0; i < iters; i++ {
				r.SetPos(0, i)
				sp := r.Span(PhaseCompute)
				r.Send((rank+1)%ranks, KindHalo, 64, r.Now())
				r.RecvUntraced((rank+ranks-1)%ranks, KindHalo, 64)
				sp.End()
			}
		}(rank)
	}
	wg.Wait()
	if err := rt.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	recs, skipped, err := ReadRecords(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d (interleaved write corrupted a line)", err, skipped)
	}
	if want := ranks * iters * 3; len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
}
