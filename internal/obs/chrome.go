package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteChrome renders trace records as Chrome trace-event JSON (the JSON
// array flavor), viewable in Perfetto or chrome://tracing. Each rank is a
// process row; spans become complete ("X") duration events on the aligned
// timeline, and matched send/recv pairs become flow arrows from the sending
// slice to the receiving one. Timestamps are µs relative to the earliest
// aligned span start, so traces open centered regardless of wall-clock.
// Like Stitch it renders only SPMD ranks (rank >= 0).
func WriteChrome(w io.Writer, recs []Record, tl *Timeline) error {
	bw := bufio.NewWriter(w)

	// Earliest aligned instant anchors the µs axis.
	var t0 int64
	first := true
	alignedT := func(rank int, ns int64) int64 { return ns - tl.Offsets[rank] }
	for _, r := range recs {
		if r.K == "s" && r.R >= 0 {
			if at := alignedT(r.R, r.T0); first || at < t0 {
				t0, first = at, false
			}
		}
	}

	type ev struct {
		ts   int64 // ns, aligned, relative
		json string
	}
	var evs []ev

	// usec renders ns as a fixed-point µs literal; clock-alignment jitter
	// can push a flow stamp slightly before the first span, so clamp at 0.
	usec := func(ns int64) string {
		if ns < 0 {
			ns = 0
		}
		return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
	}

	for _, rank := range tl.Ranks {
		evs = append(evs, ev{-1, fmt.Sprintf(
			`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"rank %d"}}`, rank, rank)})
	}

	// Spans.
	for _, r := range recs {
		if r.K != "s" || r.R < 0 {
			continue
		}
		start := alignedT(r.R, r.T0) - t0
		dur := r.T1 - r.T0
		extra := ""
		if r.P >= 0 {
			extra = fmt.Sprintf(`,"peer":%d`, r.P)
		}
		evs = append(evs, ev{start, fmt.Sprintf(
			`{"ph":"X","pid":%d,"tid":0,"name":%q,"cat":"phase","ts":%s,"dur":%s,"args":{"epoch":%d,"iter":%d%s}}`,
			r.R, r.Ph, usec(start), usec(dur), r.E, r.I, extra)})
	}

	// Message flows: match sends to recvs by (kind, from, to, epoch, iter)
	// in FIFO order (transport inboxes are FIFO per pair).
	type msgKey struct {
		kd       string
		from, to int
		e, i     int
	}
	sends := map[msgKey][]Record{}
	for _, r := range recs {
		if r.K == "m" {
			k := msgKey{r.Kd, r.R, r.P, r.E, r.I}
			sends[k] = append(sends[k], r)
		}
	}
	flowID := 0
	for _, r := range recs {
		if r.K != "v" {
			continue
		}
		k := msgKey{r.Kd, r.P, r.R, r.E, r.I}
		q := sends[k]
		if len(q) == 0 {
			continue
		}
		s := q[0]
		sends[k] = q[1:]
		flowID++
		name := "halo"
		if r.Kd == KindMig {
			name = "migration"
		}
		sTS := alignedT(s.R, s.T) - t0
		rTS := alignedT(r.R, r.T) - t0
		evs = append(evs, ev{sTS, fmt.Sprintf(
			`{"ph":"s","pid":%d,"tid":0,"id":%d,"name":%q,"cat":"msg","ts":%s,"args":{"bytes":%d}}`,
			s.R, flowID, name, usec(sTS), s.B)})
		evs = append(evs, ev{rTS, fmt.Sprintf(
			`{"ph":"f","bp":"e","pid":%d,"tid":0,"id":%d,"name":%q,"cat":"msg","ts":%s}`,
			r.R, flowID, name, usec(rTS))})
	}

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })

	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		sep := ",\n"
		if i == len(evs)-1 {
			sep = "\n"
		}
		if _, err := bw.WriteString(e.json + sep); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
