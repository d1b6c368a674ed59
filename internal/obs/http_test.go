package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func mustGet(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHTTPEndpoints(t *testing.T) {
	rt := New(Config{Seed: 7})
	rt.Registry().Counter("samr_test_total", "Test counter.").Add(5)
	rt.SetState("engine", func() any {
		return map[string]any{"iter": 12, "imbalance_pct": 8.25}
	})
	srv, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, hdr := mustGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE samr_test_total counter",
		"samr_test_total 5",
		`samr_phase_seconds_bucket{phase="compute",le="+Inf"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, hdr = mustGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz content type = %q", ct)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz json: %v", err)
	}
	if health["status"] != "ok" || health["run"] != RunID(7) {
		t.Errorf("/healthz = %v", health)
	}
	if _, ok := health["uptime_s"].(float64); !ok {
		t.Errorf("/healthz uptime_s missing: %v", health)
	}

	code, body, _ = mustGet(t, base+"/state")
	if code != http.StatusOK {
		t.Fatalf("/state status = %d", code)
	}
	var state struct {
		Run     string  `json:"run"`
		UptimeS float64 `json:"uptime_s"`
		State   map[string]map[string]any
	}
	if err := json.Unmarshal([]byte(body), &state); err != nil {
		t.Fatalf("/state json: %v", err)
	}
	if state.Run != RunID(7) {
		t.Errorf("/state run = %q", state.Run)
	}
	eng := state.State["engine"]
	if eng["iter"] != float64(12) || eng["imbalance_pct"] != 8.25 {
		t.Errorf("/state engine = %v", eng)
	}

	code, body, _ = mustGet(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline status=%d len=%d", code, len(body))
	}
}

func TestHTTPNilRuntime(t *testing.T) {
	var rt *Runtime
	srv, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, _ := mustGet(t, base+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Errorf("nil /metrics: status=%d body=%q", code, body)
	}
	code, body, _ = mustGet(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("nil /healthz: status=%d body=%q", code, body)
	}
	code, _, _ = mustGet(t, base+"/state")
	if code != http.StatusOK {
		t.Errorf("nil /state status = %d", code)
	}
}

// TestHTTPScrapeUnderLoad hammers the live HTTP endpoint from several
// scraper goroutines while simulated ranks register handles, bump
// counters, and close spans. Run under -race this is the end-to-end
// concurrency proof for the whole serving path (registry + runtime +
// state snapshot + exposition).
func TestHTTPScrapeUnderLoad(t *testing.T) {
	rt := New(Config{Seed: 11})
	rt.SetState("engine", func() any { return map[string]int{"iter": 1} })
	srv, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const ranks, updates = 4, 300
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rt.Registry().Counter("samr_load_total", "Load test.",
				Label{Key: "rank", Value: strconv.Itoa(r)})
			rec := rt.Recorder(r)
			for i := 0; i < updates; i++ {
				c.Inc()
				rec.SetPos(0, i)
				rec.Span(PhaseCompute).End()
			}
		}()
	}
	stop := make(chan struct{})
	var scrapes atomic.Int64
	var swg sync.WaitGroup
	for s := 0; s < 2; s++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/state", "/healthz"} {
					code, _, _ := mustGet(t, base+path)
					if code != http.StatusOK {
						t.Errorf("%s -> %d mid-load", path, code)
					}
					scrapes.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("scrapers never ran")
	}

	// After the dust settles every update must be visible.
	_, body, _ := mustGet(t, base+"/metrics")
	for r := 0; r < ranks; r++ {
		want := `samr_load_total{rank="` + strconv.Itoa(r) + `"} ` + strconv.Itoa(updates)
		if !strings.Contains(body, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	if n := rt.PhaseHistogram(PhaseCompute).Count(); n != ranks*updates {
		t.Errorf("compute spans %d, want %d", n, ranks*updates)
	}
}
