package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
)

// entry binds a metric name to the live cell (or function) it reads.
type entry struct {
	name string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// value reads a scalar entry. Histogram entries never reach here.
func (e *entry) value() int64 {
	switch e.kind {
	case kindCounter:
		return e.c.Load()
	case kindGauge:
		return e.g.Load()
	default:
		return e.fn()
	}
}

// Registry maps metric names to live cells owned by the layers that
// maintain them. Registry.mu is a strict leaf lock guarding only the
// name table (declared in docs/lock-hierarchy.md): registration copies
// an entry in, and exposition copies the entry list out before touching
// any cell — gauge functions are evaluated and output is written with
// no lock held, so a scrape can never block or invert against the hot
// path's locks.
//
// Registering an existing name re-points it (last registration wins):
// re-wiring a component — e.g. a promoted replica's store replacing the
// old primary's — atomically redirects the name to the new cell.
type Registry struct {
	mu     sync.Mutex
	byName map[string]int
	list   []entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

func (r *Registry) add(e entry) {
	r.mu.Lock()
	if i, ok := r.byName[e.name]; ok {
		r.list[i] = e
	} else {
		r.byName[e.name] = len(r.list)
		r.list = append(r.list, e)
	}
	r.mu.Unlock()
}

// RegisterCounter exposes a layer-owned Counter cell under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.add(entry{name: name, kind: kindCounter, c: c})
}

// RegisterGauge exposes a layer-owned Gauge cell under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.add(entry{name: name, kind: kindGauge, g: g})
}

// RegisterHistogram exposes a layer-owned Histogram under name.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.add(entry{name: name, kind: kindHistogram, h: h})
}

// RegisterGaugeFunc exposes a computed level. fn runs on every
// exposition with no registry lock held; it must be safe to call from
// any goroutine and should itself be non-blocking (read atomics, not
// mutexes).
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	r.add(entry{name: name, kind: kindGaugeFunc, fn: fn})
}

// entries returns a name-sorted copy of the table. Cells and functions
// are only touched after Registry.mu is released.
func (r *Registry) entries() []entry {
	r.mu.Lock()
	es := make([]entry, len(r.list))
	copy(es, r.list)
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	return es
}

// errWriter folds the first write error and silences the rest, keeping
// the exposition loops linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// WriteProm writes every metric in Prometheus text exposition style,
// sorted by name. Histogram buckets carry their bound in nanoseconds in
// the `le` label (the repo's metric names end in `_ns`; no unit
// conversion happens anywhere), cumulative as Prometheus expects, with
// empty buckets elided and a final +Inf line.
func (r *Registry) WriteProm(w io.Writer) error {
	ew := &errWriter{w: w}
	for _, e := range r.entries() {
		switch e.kind {
		case kindCounter:
			ew.printf("# TYPE %s counter\n%s %d\n", e.name, e.name, e.value())
		case kindGauge, kindGaugeFunc:
			ew.printf("# TYPE %s gauge\n%s %d\n", e.name, e.name, e.value())
		case kindHistogram:
			s := e.h.Snapshot()
			ew.printf("# TYPE %s histogram\n", e.name)
			var cum int64
			for i, c := range s.Buckets {
				cum += c
				if c != 0 {
					ew.printf("%s_bucket{le=\"%d\"} %d\n", e.name, int64(BucketBound(i)), cum)
				}
			}
			ew.printf("%s_bucket{le=\"+Inf\"} %d\n", e.name, s.Count)
			ew.printf("%s_sum %d\n%s_count %d\n", e.name, int64(s.Sum), e.name, s.Count)
		}
	}
	return ew.err
}

// Snapshot returns every metric's current value as a JSON-ready map:
// counters and gauges as plain integers, histograms as
// {count, sum_ns, p50_ns, p90_ns, p99_ns}. This is the single source
// both the /vars endpoint and the replicad follow loop print from, so
// the CLI and HTTP views can never disagree.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, e := range r.entries() {
		if e.kind == kindHistogram {
			s := e.h.Snapshot()
			out[e.name] = map[string]int64{
				"count":  s.Count,
				"sum_ns": int64(s.Sum),
				"p50_ns": int64(s.P50()),
				"p90_ns": int64(s.P90()),
				"p99_ns": int64(s.P99()),
			}
			continue
		}
		out[e.name] = e.value()
	}
	return out
}

// Names returns the sorted registered metric names (docs tests pin the
// catalogue in docs/observability.md against this).
func (r *Registry) Names() []string {
	es := r.entries()
	names := make([]string, len(es))
	for i := range es {
		names[i] = es[i].name
	}
	return names
}

// WriteJSON writes the Snapshot as indented JSON (the /vars payload).
// encoding/json sorts map keys, so the output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
