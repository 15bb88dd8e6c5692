// Package obs is the module's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms with snapshot quantiles) plus
// lightweight pipeline tracing (Span) and a configurable slow-op log.
//
// The design contract, checked by jcflint's holdblock/lockgraph
// analyzers, is that every instrument point is non-blocking: Counter,
// Gauge and Histogram writes are single atomic adds, Span stamps are
// clock reads plus atomic adds, and the only lock in the package —
// Registry.mu — is a strict leaf guarding the name table alone.
// Exposition copies the table out under the lock and touches cells,
// evaluates gauge functions and writes output with no lock held, so a
// /metrics scrape can never block an Apply or an upload.
//
// Layers own their metric cells (embedded by value in their structs)
// and register pointers to them, so the pre-existing Stats() snapshot
// structs and the registry read the same cells — nothing is counted
// twice. Registration happens at wiring time (cmd/replicad, tests):
// there is no global registry, because tests build many stores and
// frameworks side by side.
//
// Timing instrumentation can be stripped at runtime with
// SetEnabled(false): obs.Now returns the zero time, Histogram.Since and
// Span methods become no-ops, and hot paths pay one atomic load instead
// of two clock reads. Counters and gauges stay on — they are single
// adds on cache-hot cells and the Stats() views depend on them.
package obs

import (
	"sync/atomic"
	"time"
)

// disabled strips timing instrumentation when set. The zero value means
// enabled, so an unconfigured process observes by default.
var disabled atomic.Bool

// SetEnabled turns timing instrumentation (histogram timing, spans,
// slow-op log) on or off process-wide. Counters and gauges are
// unaffected.
func SetEnabled(on bool) { disabled.Store(!on) }

// Now returns the wall clock, or the zero Time when timing
// instrumentation is disabled. Paired with Histogram.Since (a no-op on
// a zero start), hot paths time themselves as
//
//	start := obs.Now()
//	...
//	m.latency.Since(start)
//
// and a stripped build pays one atomic load instead of two clock reads.
func Now() time.Time {
	if disabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Layers embed Counter cells directly in their structs
// and hand the registry a pointer, so Stats() views and /metrics
// scrapes read the same cell.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic;
// this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level: queue depth, in-flight operations,
// subscriber count. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Update stores an absolute level.
func (g *Gauge) Update(n int64) { g.v.Store(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Sampler admits one call in every stride. It thins very hot
// instrument points — e.g. stripe-lock wait timing, where even two
// clock reads per acquisition would be measurable — while still
// filling a histogram with a statistically useful stream.
type Sampler struct{ n atomic.Uint64 }

// Sample returns a start time on every stride-th call and the zero
// Time (which Histogram.Since ignores) otherwise. stride must be a
// power of two.
func (s *Sampler) Sample(stride uint64) time.Time {
	if s.n.Add(1)&(stride-1) != 0 {
		return time.Time{}
	}
	return Now()
}
