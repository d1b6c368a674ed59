package engine

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"samrpart/internal/monitor"
	"samrpart/internal/obs"
	"samrpart/internal/trace"
	"samrpart/internal/transport"
)

// TestSPMDBitIdenticalWithObs proves the zero-value-off guarantee's flip
// side: turning observability ON changes nothing either. The same SPMD run
// with and without a live obs.Runtime must agree bit for bit on the
// solution and on every counter, with fault tolerance off and on
// (heartbeats and checkpoints): a runtime without a span log must not
// stamp heartbeats or frames. A third, traced run must agree on everything
// but BytesSent (tracing extends frames) and supplies the span records.
func TestSPMDBitIdenticalWithObs(t *testing.T) {
	const iters = 12
	for _, tc := range []struct {
		name string
		ft   bool
	}{{"ft-off", false}, {"ft-on", true}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(rt *obs.Runtime) []*SPMDResult {
				eps, err := transport.NewGroup(3)
				if err != nil {
					t.Fatal(err)
				}
				cfg := spmdConfig(iters)
				if tc.ft {
					cfg = ftConfig(t, iters, t.TempDir())
				}
				cfg.CapsAt = capsSwitcher(3)
				cfg.Obs = rt
				return runSPMD(t, eps, cfg)
			}
			rt := obs.New(obs.Config{Seed: 99})
			var log bytes.Buffer
			tracedRT := obs.New(obs.Config{Seed: 99, Trace: &log})
			off := run(nil)
			on := run(rt)
			traced := run(tracedRT)
			if err := tracedRT.Flush(); err != nil {
				t.Fatal(err)
			}

			for r := range off {
				a := off[r]
				for _, v := range []struct {
					name      string
					b         *SPMDResult
					bytesSent bool
				}{{"on", on[r], true}, {"traced", traced[r], false}} {
					b := v.b
					if a.L1Sum != b.L1Sum {
						t.Errorf("rank %d: L1 %.17g (off) != %.17g (%s)", r, a.L1Sum, b.L1Sum, v.name)
					}
					if (v.bytesSent && a.BytesSent != b.BytesSent) || a.MsgsSent != b.MsgsSent || a.MsgsRecvd != b.MsgsRecvd {
						t.Errorf("rank %d: transport counters differ: off=%+v %s=%+v", r, a, v.name, b)
					}
					if a.MigratedBytes != b.MigratedBytes || a.RetainedBytes != b.RetainedBytes {
						t.Errorf("rank %d: migration counters differ (%s)", r, v.name)
					}
					if a.InteriorSteps != b.InteriorSteps || a.BoundarySteps != b.BoundarySteps {
						t.Errorf("rank %d: step counters differ (%s)", r, v.name)
					}
				}
			}

			// The instrumented run must have mirrored its counters into the
			// registry, and the traced run logged spans for every rank.
			var exp strings.Builder
			if err := rt.Registry().WritePrometheus(&exp); err != nil {
				t.Fatal(err)
			}
			wantSent := int64(0)
			for _, r := range on {
				wantSent += r.BytesSent
			}
			gotSent := int64(0)
			for rank := 0; rank < 3; rank++ {
				gotSent += rt.Registry().Counter("samr_spmd_bytes_sent_total", "",
					obs.Label{Key: "rank", Value: string(rune('0' + rank))}).Value()
			}
			if gotSent != wantSent {
				t.Errorf("registry bytes sent %d, results say %d", gotSent, wantSent)
			}
			for _, want := range []string{
				`samr_spmd_msgs_sent_total{rank="0"}`,
				`samr_spmd_peer_bytes_total{peer=`,
				`samr_phase_seconds_bucket{phase="compute",le=`,
			} {
				if !strings.Contains(exp.String(), want) {
					t.Errorf("exposition missing %q", want)
				}
			}

			recs, skipped, err := obs.ReadRecords(&log)
			if err != nil || skipped != 0 {
				t.Fatalf("read: err=%v skipped=%d", err, skipped)
			}
			phases := map[string]bool{}
			ranks := map[int]bool{}
			for _, rec := range recs {
				if rec.K == "s" {
					phases[rec.Ph] = true
					ranks[rec.R] = true
				}
			}
			for _, p := range []string{"compute", "halo-wait", "partition", "migrate"} {
				if !phases[p] {
					t.Errorf("span log has no %q spans", p)
				}
			}
			for rank := 0; rank < 3; rank++ {
				if !ranks[rank] {
					t.Errorf("span log has no spans from rank %d", rank)
				}
			}
		})
	}
}

// TestEngineObsMetrics runs the virtual-cluster engine with observability
// live and checks that the control-loop metrics and the /state snapshot
// mirror the trace.
func TestEngineObsMetrics(t *testing.T) {
	rt := obs.New(obs.Config{Seed: 5})
	clus := newCluster(t, 4)
	cfg := baseConfig()
	cfg.SenseEvery = 2
	cfg.Obs = rt
	eng, err := New(cfg, clus)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetState("engine", eng.Snapshot)
	tr, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	reg := rt.Registry()
	if got := reg.Counter("samr_engine_senses_total", "").Value(); got != int64(tr.Senses) {
		t.Errorf("senses metric %d, trace %d", got, tr.Senses)
	}
	if got := reg.Counter("samr_engine_repartitions_total", "").Value(); got != int64(tr.Repartitions) {
		t.Errorf("repartitions metric %d, trace %d", got, tr.Repartitions)
	}
	if got := rt.PhaseHistogram(obs.PhaseSense).Count(); got != int64(tr.Senses) {
		t.Errorf("sense spans %d, trace senses %d", got, tr.Senses)
	}
	if rt.PhaseHistogram(obs.PhaseCompute).Count() != int64(cfg.Iterations) {
		t.Errorf("compute spans %d, want %d",
			rt.PhaseHistogram(obs.PhaseCompute).Count(), cfg.Iterations)
	}

	st, ok := eng.Snapshot().(EngineState)
	if !ok {
		t.Fatalf("snapshot type %T", eng.Snapshot())
	}
	if st.Repartitions != tr.Repartitions || st.Senses != tr.Senses {
		t.Errorf("snapshot %+v does not mirror trace (%d repartitions, %d senses)",
			st, tr.Repartitions, tr.Senses)
	}
	if len(st.Capacities) != clus.NumNodes() || len(st.Health) != clus.NumNodes() {
		t.Errorf("snapshot capacities/health sized %d/%d, want %d",
			len(st.Capacities), len(st.Health), clus.NumNodes())
	}
	if st.Boxes == 0 || math.IsNaN(st.ImbalancePct) {
		t.Errorf("snapshot assignment fields empty: %+v", st)
	}
}

// TestEngineBitIdenticalWithObs runs the same engine config with and
// without observability and compares the traces exactly: the virtual
// clock, the cost model and every counter must be untouched by
// instrumentation.
func TestEngineBitIdenticalWithObs(t *testing.T) {
	run := func(rt *obs.Runtime) *trace.RunTrace {
		clus := newCluster(t, 4)
		cfg := baseConfig()
		cfg.SenseEvery = 2
		cfg.Hygiene = monitor.DefaultHygiene()
		cfg.RepartitionThreshold = 5
		cfg.AffinityRemap = true
		cfg.Obs = rt
		e, err := New(cfg, clus)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	off := run(nil)
	on := run(obs.New(obs.Config{Seed: 1}))
	if !reflect.DeepEqual(off, on) {
		t.Errorf("traces differ with observability on:\noff: %+v\non:  %+v", off, on)
	}
}
