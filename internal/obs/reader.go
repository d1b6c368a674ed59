package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Record is one decoded span-log record. K selects the kind and which
// fields are meaningful:
//
//	"s" span:    R, Ph, E, I, T0, T1; P ≥ 0 and TS on gated wait spans
//	"m" send:    R → P, Kd, E, I, B, T (= wire send stamp echoed in TS-free form)
//	"v" recv:    R ← P, Kd, E, I, B, TS (sender stamp, 0 = untraced), T
//	"o" offset:  R about P, Off (peer clock − R clock), RTT, T
//	"g" verdict: R saw Tgt move to St at (E, I), T
type Record struct {
	K   string `json:"k"`
	R   int    `json:"r"`
	P   int    `json:"p"`
	Ph  string `json:"ph,omitempty"`
	Kd  string `json:"kd,omitempty"`
	E   int    `json:"e"`
	I   int    `json:"i"`
	B   int64  `json:"b,omitempty"`
	TS  int64  `json:"ts,omitempty"`
	T0  int64  `json:"t0,omitempty"`
	T1  int64  `json:"t1,omitempty"`
	T   int64  `json:"t,omitempty"`
	Off int64  `json:"off,omitempty"`
	RTT int64  `json:"rtt,omitempty"`
	Tgt int    `json:"tgt,omitempty"`
	St  string `json:"st,omitempty"`
}

// ReadRecords decodes a JSONL span log leniently: malformed lines — the
// usual casualty is a final line truncated when a soak is killed mid-write —
// are skipped and counted instead of aborting the whole analysis. Only I/O
// errors are returned. Records keep file order.
func ReadRecords(r io.Reader) (recs []Record, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		rec.P = -1
		if json.Unmarshal(line, &rec) != nil || rec.K == "" {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("obs: read records: %w", err)
	}
	return recs, skipped, nil
}
