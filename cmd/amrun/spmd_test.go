package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"samrpart/internal/obs"
)

// TestRunSPMDObs proves -spmd honors the observability runtime: the ranks
// register their samr_spmd_* counters and write span records.
func TestRunSPMDObs(t *testing.T) {
	var log bytes.Buffer
	rt := obs.New(obs.Config{Seed: 3, Trace: &log})
	if err := runSPMD(2, spmdOpts{kernel: "advect2d", iters: 8, obs: rt}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	var exp strings.Builder
	if err := rt.Registry().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := obs.ReadRecords(&log)
	if err != nil || skipped != 0 {
		t.Fatalf("read: err=%v skipped=%d", err, skipped)
	}
	spans := map[int]int{}
	for _, r := range recs {
		if r.K == "s" {
			spans[r.R]++
		}
	}
	for rank := 0; rank < 2; rank++ {
		if want := fmt.Sprintf(`samr_spmd_bytes_sent_total{rank="%d"}`, rank); !strings.Contains(exp.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
		if spans[rank] == 0 {
			t.Errorf("no span records from rank %d", rank)
		}
	}
}
