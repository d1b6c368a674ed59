package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// Message kinds on send/recv records.
const (
	KindHalo = "h"
	KindMig  = "g"
)

// spanLog is the shared span sink: a locked, buffered JSONL writer. One log
// serves every recorder of a runtime (records carry the rank); a
// distributed deployment would open one per process and hand the stitcher
// all the files. Records are hand-encoded into a reused scratch buffer, so
// the steady-state record paths allocate nothing.
type spanLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	err error
}

func newSpanLog(w io.Writer) *spanLog {
	return &spanLog{w: bufio.NewWriterSize(w, 1<<16)}
}

// Flush drains the buffered writer and reports the first write error.
func (l *spanLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Recorder records one rank's spans and, when the runtime has a span log,
// its messages, clock observations and straggler verdicts. It is owned by
// that rank's goroutine: the current (epoch, iter) position is set once per
// loop turn via SetPos, and spans started from worker goroutines of the same
// rank only read it.
type Recorder struct {
	phase     *[NumPhases]*Histogram
	log       *spanLog // nil: metrics only
	rank      int32
	skew      int64 // injected clock skew (ns), set by tests
	epoch     int32
	iter      int32
	lastDelta map[int32]int64
}

// Traced reports whether the recorder writes records, which is also what
// switches on the wire trace context and the heartbeat clock stamps.
func (r *Recorder) Traced() bool { return r != nil && r.log != nil }

// Now returns the rank-local clock (wall ns plus any injected skew). All
// stamps this recorder writes or puts on the wire use it.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Now().UnixNano() + r.skew
}

// SetPos positions subsequent records at (epoch, iter).
func (r *Recorder) SetPos(epoch, iter int) {
	if r == nil {
		return
	}
	r.epoch, r.iter = int32(epoch), int32(iter)
}

// Pos returns the current (epoch, iter) position for wire contexts.
func (r *Recorder) Pos() (epoch, iter int32) {
	if r == nil {
		return 0, 0
	}
	return r.epoch, r.iter
}

// Span opens a span in phase p at the current position. The zero Span
// (from a nil Recorder) is a no-op to End.
func (r *Recorder) Span(p Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, ph: p, peer: -1, t0: r.Now()}
}

// WaitSpan opens a blocking-wait span attributed to peer; End it with
// EndGated to record the gating message's sender stamp for the
// critical-path jump.
func (r *Recorder) WaitSpan(p Phase, peer int) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, ph: p, peer: int32(peer), t0: r.Now()}
}

// Span is an open interval on one rank's timeline. It is a value: starting
// and ending one allocates nothing.
type Span struct {
	rec  *Recorder
	ph   Phase
	peer int32
	t0   int64
}

// End closes the span: its duration feeds the phase histogram and, with a
// span log, one record.
func (s Span) End() { s.EndGated(0) }

// EndGated closes a wait span whose last gating message carried the sender
// clock stamp sendTS (0 = none); the stitcher jumps the critical path to
// the blocking peer at that instant.
func (s Span) EndGated(sendTS int64) {
	r := s.rec
	if r == nil {
		return
	}
	t1 := r.Now()
	r.phase[s.ph].Observe(float64(t1-s.t0) / 1e9)
	if r.log != nil {
		r.log.span(r.rank, s.ph.String(), r.epoch, r.iter, s.peer, s.t0, t1, sendTS)
	}
}

// Send records a message of kind (KindHalo/KindMig) to peer, stamped with
// the same sendNS that went into the wire TraceCtx.
func (r *Recorder) Send(peer int, kind string, bytes int, sendNS int64) {
	if !r.Traced() {
		return
	}
	r.log.msg('m', r.rank, int32(peer), kind, r.epoch, r.iter, int64(bytes), sendNS, r.Now())
}

// Recv records the arrival of a traced message from peer: (msgEpoch,
// msgIter, sendTS) come from the wire TraceCtx so the stitcher matches the
// pair on the sender's coordinates.
func (r *Recorder) Recv(peer int, kind string, bytes int, msgEpoch, msgIter int32, sendTS int64) {
	if !r.Traced() {
		return
	}
	r.log.msg('v', r.rank, int32(peer), kind, msgEpoch, msgIter, int64(bytes), sendTS, r.Now())
}

// RecvUntraced records an arrival that carried no trace context (an
// untraced sender); the receiver's own position is used and no sender
// stamp is available.
func (r *Recorder) RecvUntraced(peer int, kind string, bytes int) {
	if !r.Traced() {
		return
	}
	r.log.msg('v', r.rank, int32(peer), kind, r.epoch, r.iter, int64(bytes), 0, r.Now())
}

// HBDelta returns the last observed one-way delta (my clock at arrival
// minus peer's send stamp, ns) for peer, to gossip back on the next
// heartbeat. 0 means no sample yet.
func (r *Recorder) HBDelta(peer int) int64 {
	if !r.Traced() {
		return 0
	}
	return r.lastDelta[int32(peer)]
}

// ObserveHeartbeat ingests a traced heartbeat from peer: sendNS is the
// peer's clock at send, deltaNS the peer's last observed one-way delta for
// us (0 = none). It updates the delta we gossip back and, when both halves
// are in hand, writes a pairwise offset estimate record:
//
//	offNS ≈ peer_clock − my_clock,  rttNS = both one-way deltas summed.
func (r *Recorder) ObserveHeartbeat(peer int, sendNS, deltaNS int64) {
	if !r.Traced() {
		return
	}
	now := r.Now()
	din := now - sendNS // flight − (peer_clock − my_clock)
	r.lastDelta[int32(peer)] = din
	if deltaNS == 0 {
		return
	}
	off := (deltaNS - din) / 2
	rtt := deltaNS + din
	r.log.offset(r.rank, int32(peer), off, rtt, now)
}

// Verdict records a straggler-detector transition observed by this rank:
// target moved to state (monitor.StragglerState.String()) at the current
// position. The stitcher dedupes the replicated copies.
func (r *Recorder) Verdict(target int, state string) {
	if !r.Traced() {
		return
	}
	r.log.verdict(r.rank, int32(target), r.epoch, r.iter, state, r.Now())
}

// ---- locked record writers -------------------------------------------------

func (l *spanLog) span(rank int32, ph string, epoch, iter, peer int32, t0, t1, ts int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"s","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","e":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	if peer >= 0 {
		b = append(b, `,"p":`...)
		b = strconv.AppendInt(b, int64(peer), 10)
	}
	if ts != 0 {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, ts, 10)
	}
	b = append(b, `,"t0":`...)
	b = strconv.AppendInt(b, t0, 10)
	b = append(b, `,"t1":`...)
	b = strconv.AppendInt(b, t1, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

func (l *spanLog) msg(k byte, rank, peer int32, kind string, epoch, iter int32, bytes, ts, t int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"`...)
	b = append(b, k)
	b = append(b, `","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(peer), 10)
	b = append(b, `,"kd":"`...)
	b = append(b, kind...)
	b = append(b, `","e":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, bytes, 10)
	if ts != 0 {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, ts, 10)
	}
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

func (l *spanLog) offset(rank, peer int32, off, rtt, t int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"o","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(peer), 10)
	b = append(b, `,"off":`...)
	b = strconv.AppendInt(b, off, 10)
	b = append(b, `,"rtt":`...)
	b = strconv.AppendInt(b, rtt, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

func (l *spanLog) verdict(rank, target, epoch, iter int32, state string, t int64) {
	l.mu.Lock()
	b := l.buf[:0]
	b = append(b, `{"k":"g","r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"tgt":`...)
	b = strconv.AppendInt(b, int64(target), 10)
	b = append(b, `,"e":`...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, `,"i":`...)
	b = strconv.AppendInt(b, int64(iter), 10)
	b = append(b, `,"st":"`...)
	b = append(b, state...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, "}\n"...)
	l.write(b)
	l.mu.Unlock()
}

// write writes b under l.mu, keeping the scratch buffer for reuse.
func (l *spanLog) write(b []byte) {
	l.buf = b[:0]
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
}
