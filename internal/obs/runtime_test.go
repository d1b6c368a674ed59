package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestNilRuntimeIsOff(t *testing.T) {
	var rt *Runtime
	if rt.Registry() != nil {
		t.Error("nil runtime must expose nil registry")
	}
	if rt.RunIDString() != "" || rt.Uptime() != 0 {
		t.Error("nil runtime metadata must be zero")
	}
	rec := rt.Recorder(0)
	if rec != nil {
		t.Error("nil runtime must yield nil recorder")
	}
	rec.Span(PhaseCompute).End()
	if rt.PhaseHistogram(PhaseCompute) != nil {
		t.Error("nil runtime must expose nil histograms")
	}
	rt.SetState("x", func() any { return 1 })
	if err := rt.Flush(); err != nil {
		t.Errorf("nil flush: %v", err)
	}
}

func TestRuntimeSpans(t *testing.T) {
	var buf bytes.Buffer
	rt := New(Config{Seed: 42, Trace: &buf})
	if rt.RunIDString() != RunID(42) {
		t.Errorf("run ID = %q, want %q", rt.RunIDString(), RunID(42))
	}

	rec := rt.Recorder(3)
	rec.SetPos(0, 17)
	sp := rec.WaitSpan(PhaseHaloWait, 1)
	time.Sleep(time.Millisecond)
	sp.End()
	rec.Span(PhaseCompute).End()
	rt.Recorder(-1).Span(PhaseSense).End()
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}

	h := rt.PhaseHistogram(PhaseHaloWait)
	if h.Count() != 1 || h.Sum() < 1e-3 {
		t.Errorf("halo-wait histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	if rt.PhaseHistogram(PhaseCompute).Count() != 1 {
		t.Error("compute span not recorded")
	}

	recs, skipped, err := ReadRecords(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d", err, skipped)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Ph != "halo-wait" || recs[0].R != 3 || recs[0].I != 17 || recs[0].P != 1 {
		t.Errorf("span record = %+v", recs[0])
	}
	if recs[0].T1-recs[0].T0 < int64(time.Millisecond) {
		t.Errorf("span duration = %d ns", recs[0].T1-recs[0].T0)
	}
	if recs[2].R != -1 || recs[2].Ph != "sense" {
		t.Errorf("engine span record = %+v", recs[2])
	}

	// The per-phase histograms must all be registered up front so the
	// exposition is stable from the first scrape.
	var exp strings.Builder
	if err := rt.Registry().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, p := range Phases() {
		if !strings.Contains(exp.String(), `phase="`+p.String()+`"`) {
			t.Errorf("exposition missing phase %q", p)
		}
	}
}

// TestMetricsOnlyRecorder proves a runtime without a span log still feeds
// the phase histograms, but is not Traced and writes no message, offset or
// verdict state: the wire stays as it is with observability off.
func TestMetricsOnlyRecorder(t *testing.T) {
	rt := New(Config{Seed: 1})
	rec := rt.Recorder(0)
	if rec.Traced() {
		t.Fatal("recorder without a span log reports Traced")
	}
	rec.Span(PhaseCompute).End()
	rec.WaitSpan(PhaseDtWait, 1).EndGated(7)
	rec.ObserveHeartbeat(1, rec.Now(), 5)
	if rec.HBDelta(1) != 0 {
		t.Error("untraced recorder kept a heartbeat delta")
	}
	if rt.PhaseHistogram(PhaseCompute).Count() != 1 || rt.PhaseHistogram(PhaseDtWait).Count() != 1 {
		t.Error("untraced spans did not feed the histograms")
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"sense", "partition", "remap", "plan", "migrate", "mig-wait", "pack",
		"compute", "halo-wait", "unpack", "advance", "dt-wait", "checkpoint"}
	ps := Phases()
	if len(ps) != len(want) {
		t.Fatalf("got %d phases, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p.String(), want[i])
		}
	}
	if Phase(200).String() != "phase(200)" {
		t.Errorf("out-of-range phase name = %q", Phase(200).String())
	}
}

func TestRunIDDeterministic(t *testing.T) {
	if RunID(42) != RunID(42) {
		t.Error("same seed must give same run ID")
	}
	if RunID(1) == RunID(2) {
		t.Error("distinct seeds must give distinct run IDs")
	}
	if !strings.HasPrefix(RunID(7), "run-") || len(RunID(7)) != len("run-")+16 {
		t.Errorf("run ID shape: %q", RunID(7))
	}
}
