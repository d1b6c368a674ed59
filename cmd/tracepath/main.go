// Command tracepath analyzes a span log (JSONL, written by amrun or
// experiments with -trace). Its report opens with per-phase and per-rank
// breakdown tables: how much wall time each runtime phase consumed, how it
// spread across ranks (the engine control loop reports as rank -1), and how
// many bytes each phase received. For the SPMD ranks it then prints
// per-iteration critical paths: for every (epoch, iteration) the chain of
// (rank, phase, blocking peer) hops that bounded wall-clock, the top causes
// with their share of the iteration, the cross-run straggler attribution
// ranking cross-checked against the straggler detector's own verdicts in the
// log, and the clock-offset/RTT estimates per rank. The critical-path tables
// assume the log holds one SPMD group.
//
//	go run ./cmd/amrun -spmd 4 -trace run.trace ... && go run ./cmd/tracepath run.trace
//	go run ./cmd/tracepath -top 3 -chrome run.json run.trace   # Perfetto export
//	go run ./cmd/tracepath -csv phase run.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"samrpart/internal/obs"
	"samrpart/internal/trace"
)

// peerCell renders a blocking-peer column (wait hops name a peer, own work
// does not).
func peerCell(p int) string {
	if p < 0 {
		return "-"
	}
	return fmt.Sprint(p)
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// causeTable builds the per-iteration critical-path table: one row per
// (epoch, iter) with its wall-clock, coverage, and top causes.
func causeTable(tl *obs.Timeline, top int) *trace.Table {
	t := trace.NewTable("per-iteration critical path",
		"epoch", "iter", "wall ms", "covered", "top causes (rank:phase[<-peer] share)")
	for _, w := range tl.Iters {
		covered := 1.0
		if w.Wall > 0 {
			covered = float64(w.Covered) / float64(w.Wall)
		}
		causes := ""
		for i, c := range w.Causes {
			if i >= top {
				break
			}
			if i > 0 {
				causes += "  "
			}
			causes += fmt.Sprintf("%d:%s", c.Rank, c.Phase)
			if c.Peer >= 0 {
				causes += fmt.Sprintf("<-%d", c.Peer)
			}
			causes += " " + pct(c.Frac)
		}
		t.Add(fmt.Sprint(w.Epoch), fmt.Sprint(w.Iter), ms(w.Wall), pct(covered), causes)
	}
	return t
}

// offsetTable lists the stitched per-rank clock model.
func offsetTable(tl *obs.Timeline) *trace.Table {
	t := trace.NewTable("clock alignment (vs reference rank)", "rank", "offset ms", "hb rtt ms")
	for _, r := range tl.Ranks {
		rtt := "-"
		if v, ok := tl.RTTs[r]; ok {
			rtt = ms(v)
		}
		t.Add(fmt.Sprint(r), ms(tl.Offsets[r]), rtt)
	}
	return t
}

// shareTable is the straggler attribution ranking: critical-path time
// charged to each rank (wait hops blame the blocking peer), annotated with
// the straggler detector's own verdicts about that rank from the same log.
func shareTable(tl *obs.Timeline) *trace.Table {
	verdicts := map[int]string{}
	for _, v := range tl.Verdicts {
		s := fmt.Sprintf("%s@(%d,%d)", v.State, v.Epoch, v.Iter)
		if prev := verdicts[v.Target]; prev != "" {
			s = prev + " " + s
		}
		verdicts[v.Target] = s
	}
	t := trace.NewTable("straggler attribution (critical-path time charged per rank)",
		"rank", "ms", "share", "detector verdicts")
	for _, s := range tl.Shares {
		vd := verdicts[s.Rank]
		if vd == "" {
			vd = "-"
		}
		t.Add(fmt.Sprint(s.Rank), ms(s.NS), pct(s.Frac), vd)
	}
	return t
}

// phaseStats accumulates one phase's (or one rank's phase's) spans.
type phaseStats struct {
	spans int
	total float64 // seconds
	max   float64
}

func (s *phaseStats) add(durS float64) {
	s.spans++
	s.total += durS
	if durS > s.max {
		s.max = durS
	}
}

func (s *phaseStats) mean() float64 {
	if s.spans == 0 {
		return 0
	}
	return s.total / float64(s.spans)
}

// msgPhase is the wait phase that receives each message kind: received
// bytes are charged to it.
var msgPhase = map[string]string{obs.KindHalo: obs.PhaseHaloWait.String(), obs.KindMig: obs.PhaseMigWait.String()}

// breakdown is the per-phase and per-rank view of a span log.
type breakdown struct {
	spans      int
	phases     []string // taxonomy order, then unknown names alphabetically
	byPhase    map[string]*phaseStats
	byRank     map[int]map[string]*phaseStats
	phaseBytes map[string]int64
	rankBytes  map[int]int64
}

// entry returns m's stats for phase ph, creating them on first use.
func entry(m map[string]*phaseStats, ph string) *phaseStats {
	if m[ph] == nil {
		m[ph] = &phaseStats{}
	}
	return m[ph]
}

// buildBreakdown folds span records and received-message bytes into the
// per-phase and per-rank tables.
func buildBreakdown(recs []obs.Record) *breakdown {
	b := &breakdown{
		byPhase:    map[string]*phaseStats{},
		byRank:     map[int]map[string]*phaseStats{},
		phaseBytes: map[string]int64{},
		rankBytes:  map[int]int64{},
	}
	for _, r := range recs {
		switch r.K {
		case "s":
			b.spans++
			d := float64(r.T1-r.T0) / 1e9
			entry(b.byPhase, r.Ph).add(d)
			if b.byRank[r.R] == nil {
				b.byRank[r.R] = map[string]*phaseStats{}
			}
			entry(b.byRank[r.R], r.Ph).add(d)
		case "v":
			// Every receive happens inside its wait span, so the phase
			// and the rank already have rows.
			if ph, ok := msgPhase[r.Kd]; ok {
				b.phaseBytes[ph] += r.B
				b.rankBytes[r.R] += r.B
			}
		}
	}
	known := map[string]bool{}
	for _, p := range obs.Phases() {
		known[p.String()] = true
		if b.byPhase[p.String()] != nil {
			b.phases = append(b.phases, p.String())
		}
	}
	var extra []string
	for ph := range b.byPhase {
		if !known[ph] {
			extra = append(extra, ph)
		}
	}
	sort.Strings(extra)
	b.phases = append(b.phases, extra...)
	return b
}

// secs renders a duration column with microsecond resolution.
func secs(v float64) string { return fmt.Sprintf("%.6f", v) }

func mb(bytes int64) string { return fmt.Sprintf("%.3f", float64(bytes)/1e6) }

// phaseTable builds the per-phase breakdown.
func (b *breakdown) phaseTable() *trace.Table {
	t := trace.NewTable(fmt.Sprintf("per-phase breakdown (%d spans)", b.spans),
		"phase", "spans", "total s", "mean s", "max s", "MB")
	for _, ph := range b.phases {
		s := b.byPhase[ph]
		t.Add(ph, fmt.Sprint(s.spans), secs(s.total), secs(s.mean()), secs(s.max), mb(b.phaseBytes[ph]))
	}
	return t
}

// rankTable builds the per-rank breakdown: one row per rank, one duration
// column per phase that appears in the log.
func (b *breakdown) rankTable() *trace.Table {
	header := append([]string{"rank", "spans"}, b.phases...)
	header = append(header, "MB")
	t := trace.NewTable("per-rank breakdown (seconds)", header...)
	ranks := make([]int, 0, len(b.byRank))
	for k := range b.byRank {
		ranks = append(ranks, k)
	}
	sort.Ints(ranks)
	for _, k := range ranks {
		spans := 0
		cells := []string{fmt.Sprint(k), ""}
		for _, ph := range b.phases {
			s := b.byRank[k][ph]
			if s == nil {
				cells = append(cells, "-")
				continue
			}
			spans += s.spans
			cells = append(cells, secs(s.total))
		}
		cells[1] = fmt.Sprint(spans)
		t.Add(append(cells, mb(b.rankBytes[k]))...)
	}
	return t
}

func run(in io.Reader, out io.Writer, top int, chromePath, csv string) error {
	recs, skipped, err := obs.ReadRecords(in)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no trace records in input (%d malformed lines)", skipped)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "tracepath: skipped %d malformed line(s) (truncated log?)\n", skipped)
	}
	tl := obs.Stitch(recs, skipped)

	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChrome(f, recs, tl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracepath: wrote Chrome trace JSON to %s (open in Perfetto)\n", chromePath)
	}

	bd := buildBreakdown(recs)
	if csv != "" {
		switch csv {
		case "phase":
			return bd.phaseTable().CSV(out)
		case "rank":
			return bd.rankTable().CSV(out)
		case "causes":
			return causeTable(tl, top).CSV(out)
		case "shares":
			return shareTable(tl).CSV(out)
		case "offsets":
			return offsetTable(tl).CSV(out)
		default:
			return fmt.Errorf("unknown -csv table %q (want phase, rank, causes, shares or offsets)", csv)
		}
	}

	fmt.Fprintf(out, "%d records, %d ranks, %d iteration windows\n",
		len(recs), len(tl.Ranks), len(tl.Iters))
	for _, t := range []*trace.Table{bd.phaseTable(), bd.rankTable()} {
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if err := causeTable(tl, top).Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := shareTable(tl).Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return offsetTable(tl).Render(out)
}

func main() {
	top := flag.Int("top", 3, "causes shown per iteration row")
	chrome := flag.String("chrome", "", "also write Chrome trace-event JSON (Perfetto-viewable) to this path")
	csv := flag.String("csv", "", "emit one table as CSV instead of text: phase | rank | causes | shares | offsets")
	flag.Parse()
	in := io.Reader(os.Stdin)
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "tracepath: at most one span-log path (or stdin)")
		os.Exit(2)
	}
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracepath:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, os.Stdout, *top, *chrome, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "tracepath:", err)
		os.Exit(1)
	}
}
