package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanKind names one timed call the harness makes, or its own work.
type spanKind uint8

const (
	spanReserve spanKind = iota
	spanCheckin
	spanPublish
	spanSave
	spanWaitFor
	spanRead
	spanSchematic
	spanSimulate
	spanLayout
	spanSyncLibrary
	// spanHarness is the harness's own work inside a designer's loop:
	// content generation, staging-file writes, byte compares, the sum
	// check and trace sampling.
	spanHarness
	numSpanKinds
)

// spanNames are the per-layer metric prefixes, indexed by spanKind.
var spanNames = [numSpanKinds]string{
	"jcf.reserve", "jcf.checkin", "jcf.publish", "jcf.save",
	"repl.waitfor", "repl.read",
	"core.schematic", "core.simulate", "core.layout", "core.sync_library",
	"harness",
}

// span is one recorded interval, in nanoseconds since the recorder's base.
type span struct {
	kind       spanKind
	cycle      int32
	start, end int64
}

// recorder holds one designer's spans in memory for one round. A nil
// recorder records nothing, so untraced rounds pay one nil check per
// call. Each designer owns its recorder; no locking is needed.
type recorder struct {
	base               time.Time
	designer           int
	spans              []span
	wallStart, wallEnd int64
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// record closes a span that began at start (a value from now).
func (r *recorder) record(kind spanKind, cycle int, start int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{kind: kind, cycle: int32(cycle), start: start, end: r.now()})
}

// split divides the designers' summed wall time into the span kinds and
// the unattributed remainder. Spans of one designer never overlap (each
// designer makes one call at a time), so the shares and the remainder
// add up to 1.
func split(recs []*recorder) (shares [numSpanKinds]float64, unattributed float64) {
	var wall int64
	var busy [numSpanKinds]int64
	for _, r := range recs {
		wall += r.wallEnd - r.wallStart
		for _, s := range r.spans {
			busy[s.kind] += s.end - s.start
		}
	}
	if wall <= 0 {
		return shares, 0
	}
	unattributed = 1
	for k := range busy {
		shares[k] = float64(busy[k]) / float64(wall)
		unattributed -= shares[k]
	}
	return shares, unattributed
}

// durations returns the span durations of one kind in milliseconds.
func durations(recs []*recorder, kind spanKind) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.kind == kind {
				out = append(out, float64(s.end-s.start)/1e6)
			}
		}
	}
	return out
}

// writeSpans dumps every span of the traced rounds as one JSON object
// per line.
func writeSpans(path string, rounds []*roundResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for round, rr := range rounds {
		for _, r := range rr.recs {
			for _, s := range r.spans {
				if err := enc.Encode(map[string]any{
					"round": round, "designer": r.designer, "cycle": s.cycle,
					"name": spanNames[s.kind], "start_ns": s.start, "end_ns": s.end,
				}); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
