package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samrpart/internal/obs"
)

// sampleTrace is a deterministic two-rank log: rank 1 computes late, rank 0
// blocks on its halo, a heartbeat pair yields clock offsets, and a shed
// verdict names rank 1.
const sampleTrace = `{"k":"s","r":0,"ph":"compute","e":0,"i":7,"t0":0,"t1":100000}
{"k":"s","r":0,"p":1,"ph":"halo-wait","e":0,"i":7,"ts":450000,"t0":100000,"t1":500000}
{"k":"s","r":0,"ph":"advance","e":0,"i":7,"t0":500000,"t1":550000}
{"k":"s","r":1,"ph":"compute","e":0,"i":7,"t0":0,"t1":440000}
{"k":"s","r":1,"ph":"pack","e":0,"i":7,"t0":440000,"t1":450000}
{"k":"m","r":1,"p":0,"kd":"h","e":0,"i":7,"b":2048,"ts":450000,"t":450000}
{"k":"v","r":0,"p":1,"kd":"h","e":0,"i":7,"b":2048,"ts":450000,"t":460000}
{"k":"s","r":1,"ph":"advance","e":0,"i":7,"t0":450000,"t1":460000}
{"k":"o","r":0,"p":1,"off":5000,"rtt":900,"t":100}
{"k":"o","r":1,"p":0,"off":-5000,"rtt":900,"t":100}
{"k":"g","r":0,"tgt":1,"e":0,"i":7,"st":"shed","t":100}
{"k":"g","r":1,"tgt":1,"e":0,"i":7,"st":"shed","t":100}
`

// TestTracepathGolden pins the report shape: the critical-path row names the
// blocking chain, attribution charges rank 1, the clock table carries the
// 5µs offset, and the verdict column cross-references the detector.
func TestTracepathGolden(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleTrace), &out, 3, "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"12 records, 2 ranks, 1 iteration windows",
		"per-iteration critical path",
		"100.0%",         // full coverage
		"0:halo-wait<-1", // the wait hop names the blocking peer
		"straggler attribution",
		"shed@(0,7)", // detector verdict cross-check
		"clock alignment",
		"0.005", // 5000ns offset in ms
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
	// Rank 1 must head the attribution ranking: its own compute plus the
	// charged halo-wait dominate the 550µs window.
	shareSec := got[strings.Index(got, "straggler attribution"):]
	line1 := strings.Index(shareSec, "\n1 ")
	line0 := strings.Index(shareSec, "\n0 ")
	if line1 == -1 || (line0 != -1 && line0 < line1) {
		t.Errorf("rank 1 does not head the attribution table:\n%s", shareSec)
	}
}

func TestTracepathCSVAndChrome(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleTrace), &out, 2, "", "causes"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "epoch,") {
		t.Fatalf("causes CSV = %q", out.String())
	}

	chrome := filepath.Join(t.TempDir(), "out.json")
	if err := run(strings.NewReader(sampleTrace), &out, 2, chrome, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ph":"X"`) {
		t.Errorf("chrome export has no span events:\n%s", data)
	}

	if err := run(strings.NewReader(sampleTrace), &out, 2, "", "bogus"); err == nil {
		t.Error("bogus -csv table accepted")
	}
}

// TestTracepathTruncatedInput proves the CLI analyzes a log with a cut
// final line instead of dying on it.
func TestTracepathTruncatedInput(t *testing.T) {
	var out strings.Builder
	in := sampleTrace + `{"k":"s","r":0,"ph":"compute","e":0,"i":8,"t0":600000,"t1`
	if err := run(strings.NewReader(in), &out, 3, "", ""); err != nil {
		t.Fatalf("truncated tail should be skipped: %v", err)
	}
	if !strings.Contains(out.String(), "12 records") {
		t.Errorf("surviving records not analyzed:\n%s", out.String())
	}
}

func TestTracepathEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("garbage\n"), &out, 3, "", ""); err == nil {
		t.Error("want an error on a log with no valid records")
	}
}

// sampleLog builds a real span log via the obs runtime so the breakdown is
// tested against the writer's actual wire format: two ranks over three
// iterations each compute and then wait on a 1 MiB halo from the other, and
// the engine (rank -1) records one sense span.
func sampleLog(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	rt := obs.New(obs.Config{Seed: 42, Trace: &sb})
	recs := []*obs.Recorder{rt.Recorder(0), rt.Recorder(1)}
	for iter := 0; iter < 3; iter++ {
		for rank, rec := range recs {
			rec.SetPos(0, iter)
			rec.Span(obs.PhaseCompute).End()
			w := rec.WaitSpan(obs.PhaseHaloWait, 1-rank)
			rec.RecvUntraced(1-rank, obs.KindHalo, 1<<20)
			w.End()
		}
	}
	rt.Recorder(-1).Span(obs.PhaseSense).End()
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestReportBreakdown(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleLog(t)), &out, 3, "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"13 spans",
		"per-phase breakdown",
		"per-rank breakdown",
		"sense",
		"compute",
		"halo-wait",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
	// 2 ranks x 3 iters x 1 MiB halo received each: the halo-wait phase
	// row carries 6.291 MB, each rank row half that.
	if !strings.Contains(got, "6.291") {
		t.Errorf("per-phase MB column missing 6.291:\n%s", got)
	}
	if !strings.Contains(got, "3.146") {
		t.Errorf("per-rank MB column missing 3.146:\n%s", got)
	}
	// The engine control loop reports as rank -1.
	if !strings.Contains(got, "-1") {
		t.Errorf("rank -1 row missing:\n%s", got)
	}
}

func TestReportCSV(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleLog(t)), &out, 3, "", "phase"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + sense + compute + halo-wait
		t.Fatalf("want 4 CSV lines, got %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "phase,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	out.Reset()
	if err := run(strings.NewReader(sampleLog(t)), &out, 3, "", "rank"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 4 { // header + ranks -1, 0, 1
		t.Fatalf("want 4 rank CSV lines, got %d:\n%s", len(lines), out.String())
	}

	if err := run(strings.NewReader(sampleLog(t)), &out, 3, "", "bogus"); err == nil {
		t.Error("bogus -csv table accepted")
	}
}

// TestReportMalformedInput proves the breakdown survives a log whose tail
// was truncated mid-write: the malformed line is skipped, the surviving
// records are still analyzed.
func TestReportMalformedInput(t *testing.T) {
	var out strings.Builder
	in := sampleLog(t) + `{"k":"s","r":0,"ph":"compute","t0":1500,"t1`
	if err := run(strings.NewReader(in), &out, 3, "", ""); err != nil {
		t.Fatalf("truncated trailing line should be skipped, got %v", err)
	}
	if !strings.Contains(out.String(), "13 spans") {
		t.Errorf("surviving records not analyzed:\n%s", out.String())
	}
}
