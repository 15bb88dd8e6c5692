// Command perfbench is the designer-cycle benchmark of the JCF–FMCAD
// coupling: D = nproc designers, each a closed loop with no think time,
// run fixed-length rounds of one workload against a primary, its state
// backend and CAS, and one in-process replica, and the benchmark reports
// what a designer and a teammate see. See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fmcad"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// options are the command-line settings.
type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	out        string
	rev, dirty string
}

func parseFlags() (options, error) {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: checkin-small, checkin-large or tool-flow")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is made from")
	flag.IntVar(&o.seconds, "seconds", 30, "measuring time; whole rounds are run until it is used up")
	flag.IntVar(&o.trace, "trace", 0, "1: alternate untraced and traced rounds and report the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for state directories and span dumps")
	flag.StringVar(&o.rev, "rev", "unknown", "git revision of the code under test (stamped into the output)")
	flag.StringVar(&o.dirty, "dirty", "unknown", "whether the working tree differs from -rev")
	flag.Parse()
	if flag.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	return o, nil
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

func run() error {
	o, err := parseFlags()
	if err != nil {
		return err
	}
	wl, _ := lookupWorkload(o.workload)
	spec := workloads[wl]
	designers := runtime.NumCPU()
	root := filepath.Join(o.out, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(root)

	traced := o.trace == 1
	minRounds := 1
	if traced {
		minRounds = 2 // one untraced round for the overhead, one traced
	}
	var plain, tracedRounds []*roundResult
	deadline := time.Duration(o.seconds) * time.Second
	begin := time.Now()
	var slowest time.Duration
	for round := 0; ; round++ {
		roundStart := time.Now()
		tracedRound := traced && round%2 == 1
		rr, err := runRound(root, wl, o.seed, designers, round, tracedRound)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", spec.name, round, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d traced=%t: %d cycles in %.3fs, cycle p50 %.3fms, visible p50 %.3fms, cpu user %.3fs sys %.3fs, set-up %.4fs, heap %.1fMiB\n",
			spec.name, round, tracedRound, len(rr.cycleMs), rr.window.Seconds(),
			quantile(rr.cycleMs, 0.5), quantile(rr.visibleMs, 0.5),
			rr.cpuUser.Seconds(), rr.cpuSys.Seconds(), median(rr.setups), float64(rr.heapBytes)/(1<<20))
		if tracedRound {
			tracedRounds = append(tracedRounds, rr)
		} else {
			plain = append(plain, rr)
		}
		// Start another round only if it fits even at the slowest pace
		// seen so far, so a run seldom overruns --seconds.
		slowest = max(slowest, time.Since(roundStart))
		if round+1 >= minRounds && time.Since(begin)+slowest > deadline {
			break
		}
	}

	var attempted, failed int64
	for _, rr := range append(plain, tracedRounds...) {
		attempted += rr.attempted
		failed += rr.failed
	}
	var metrics []metric
	if traced {
		metrics = append(layerMetrics(tracedRounds, plain),
			metric{"fail_ratio", float64(failed) / float64(attempted), "ratio"})
	} else if metrics, err = endToEnd(plain); err != nil {
		return err
	}

	fsType, err := filesystemType(root)
	if err != nil {
		return err
	}
	stamp := map[string]any{
		"workload": spec.name, "seed": o.seed, "trace": o.trace,
		"cycles_per_round": spec.cycles, "rounds_untraced": len(plain), "rounds_traced": len(tracedRounds),
		"checkpoint_every": checkpointEvery, "designers": designers,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "git_rev": o.rev, "git_dirty": o.dirty,
		"state_fs": fsType, "run_seconds": o.seconds,
	}
	if traced {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, o.seed))
		if err := writeSpans(path, tracedRounds); err != nil {
			return err
		}
		stamp["spans"] = path
	}
	return report(stamp, metrics, attempted, failed)
}

// report prints the stamp, one line per metric and, last, the result
// object.
func report(stamp map[string]any, metrics []metric, attempted, failed int64) error {
	w := bufio.NewWriter(os.Stdout)
	line, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	out := make(map[string]map[string]any, len(metrics))
	for _, m := range metrics {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err = json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// setupSamples is how many worlds each round builds to time set-up.
const setupSamples = 3

// roundResult is what one round measured.
type roundResult struct {
	setups               []float64 // seconds, one per world built
	window               time.Duration
	cpuUser, cpuSys      time.Duration
	cycleMs, visibleMs   []float64
	designBytes          int64
	stateBytes, casBytes int64
	heapBytes            uint64
	attempted, failed    int64

	// Traced rounds only.
	recs        []*recorder
	delta       map[string]int64 // registry and Stats() deltas over the window
	saveBytes   int64            // bytes the window's checkpoints wrote
	imported    int64
	syncs       int64
	queueMax    int64
	metaWritten int64
	metaBytes   int64
}

// health is the set of counters that turn into failed operations.
type health struct {
	lagTrips, reconnects, gaps, vetoed, dedup int64
}

func readHealth(w *world) health {
	rs := w.rep.Stats()
	h := health{
		lagTrips:   w.fw.ReplicationSource().FeedStats().LagTrips,
		reconnects: rs.Reconnects,
		gaps:       rs.Gaps,
		dedup:      w.fw.BlobStore().Stats().DedupHits + w.repBlobs.Stats().DedupHits,
	}
	if w.notifier != nil {
		h.vetoed = w.notifier.Stats().Vetoed
	}
	return h
}

// runRound builds a world, runs one round of cycles on it, checks the
// outcome and tears the world down.
func runRound(root string, wl workload, seed uint64, designers, round int, traced bool) (rr *roundResult, err error) {
	spec := workloads[wl]
	rr = &roundResult{}
	// Set-up takes milliseconds, most of them in fsyncs, so one sample a
	// round is noisy: time setupSamples set-ups and keep the last world.
	var w *world
	for k := 0; k < setupSamples; k++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		if w, err = buildWorld(filepath.Join(root, fmt.Sprintf("round-%d-%d", round, k)), wl, designers); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rr.setups = append(rr.setups, time.Since(t0).Seconds())
	}
	defer w.close()
	dir := w.dir

	base := time.Now()
	ds := make([]*designer, designers)
	cyclers := make([]cycler, designers)
	for i := range ds {
		d := &designer{
			id: i, user: w.users[i], cells: w.cells[i],
			rng: rand.New(rand.NewPCG(seed, uint64(wl)<<32|uint64(i))),
			dir: filepath.Join(dir, fmt.Sprintf("designer-%d", i)),
		}
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			return nil, err
		}
		if traced {
			d.rec = &recorder{base: base, designer: i}
			rr.recs = append(rr.recs, d.rec)
		}
		ds[i], cyclers[i] = d, newCycler(wl, w, d)
	}

	h0 := readHealth(w)
	var before, repBefore map[string]any
	var save0, seq0, conflicts0 int64
	if traced {
		before, repBefore = w.reg.Snapshot(), w.repReg.Snapshot()
		save0 = w.state.putBytes.Load()
		if w.hy != nil {
			seq0, conflicts0 = w.hy.Lib.Seq(), w.hy.Lib.Conflicts()
			w.samples.lastSeq = seq0
		}
	}
	user0, sys0 := cpuTime()
	start := time.Now()
	var completed atomic.Int64
	errs := make([]error, designers)
	var wg sync.WaitGroup
	for i, d := range ds {
		n := spec.cycles / designers
		if i < spec.cycles%designers {
			n++
		}
		wg.Add(1)
		go func(i int, d *designer) {
			defer wg.Done()
			errs[i] = d.loop(w, cyclers[i], n, &completed)
		}(i, d)
	}
	wg.Wait()
	rr.window = time.Since(start)
	user1, sys1 := cpuTime()
	rr.cpuUser, rr.cpuSys = user1-user0, sys1-sys0
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	h1 := readHealth(w)
	if traced {
		rr.delta = map[string]int64{}
		addDelta(rr.delta, "", before, w.reg.Snapshot())
		addDelta(rr.delta, "replica.", repBefore, w.repReg.Snapshot())
		rr.saveBytes = w.state.putBytes.Load() - save0
		rr.queueMax = w.samples.queueMax
		rr.metaWritten = w.samples.metaWritten
		if w.hy != nil {
			rr.delta["fmcad.seq"] = w.hy.Lib.Seq() - seq0
			rr.delta["fmcad.conflicts"] = w.hy.Lib.Conflicts() - conflicts0
		}
	}
	for _, d := range ds {
		rr.cycleMs = append(rr.cycleMs, d.cycleMs...)
		rr.visibleMs = append(rr.visibleMs, d.visibleMs...)
		rr.attempted += d.attempted
		rr.failed += d.failed
		rr.designBytes += d.designBytes
		rr.imported += d.imported
		rr.syncs += d.syncs
		for _, dov := range d.outputs {
			n, err := w.fw.DataSize(dov)
			if err != nil {
				return nil, err
			}
			rr.designBytes += n
		}
	}
	// Health counters that moved are failed operations; a dedup hit means
	// the generator repeated content, which makes the run meaningless.
	if h1.dedup != h0.dedup {
		return nil, fmt.Errorf("%d CAS dedup hits: the generator repeated content", h1.dedup-h0.dedup)
	}
	rr.failed += (h1.lagTrips - h0.lagTrips) + (h1.reconnects - h0.reconnects) +
		(h1.gaps - h0.gaps) + (h1.vetoed - h0.vetoed)
	if w.notifier != nil && w.notifier.Lagged() {
		rr.failed++
	}

	if err := w.fw.SaveTo(w.state); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	if rr.stateBytes, err = dirBytes(filepath.Join(dir, "state")); err != nil {
		return nil, err
	}
	if rr.casBytes, err = dirBytes(filepath.Join(dir, "cas")); err != nil {
		return nil, err
	}
	if w.hy != nil && traced {
		info, err := os.Stat(filepath.Join(w.hy.Lib.Dir(), fmcad.MetaFileName))
		if err != nil {
			return nil, err
		}
		rr.metaBytes = info.Size()
	}
	// Two collections: objects parked in sync.Pools survive the first in
	// the pools' victim caches, and how many there are depends on timing.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rr.heapBytes = ms.HeapAlloc
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return rr, nil
}

// addDelta adds after-before of every counter and histogram of a
// registry snapshot to into, under prefix+name; a histogram adds
// "<name>.count" and "<name>.sum_ns". The primary and the replica
// register the same CAS metric names, so each gets its own prefix.
func addDelta(into map[string]int64, prefix string, before, after map[string]any) {
	for name, v := range after {
		switch a := v.(type) {
		case int64:
			b, _ := before[name].(int64)
			into[prefix+name] += a - b
		case map[string]int64:
			b, _ := before[name].(map[string]int64)
			into[prefix+name+".count"] += a["count"] - b["count"]
			into[prefix+name+".sum_ns"] += a["sum_ns"] - b["sum_ns"]
		}
	}
}

// endToEnd reduces untraced rounds to the end-to-end metrics. The
// timings pool every round of the run, so a run averages over the
// machine's short slow phases instead of picking one round; space,
// heap and set-up time are the median over the rounds.
func endToEnd(rounds []*roundResult) ([]metric, error) {
	var cycleMs, visibleMs, amp, heap, setup []float64
	var window, cpu time.Duration
	for _, rr := range rounds {
		cycleMs = append(cycleMs, rr.cycleMs...)
		visibleMs = append(visibleMs, rr.visibleMs...)
		window += rr.window
		cpu += rr.cpuUser + rr.cpuSys
		amp = append(amp, float64(rr.stateBytes+rr.casBytes)/float64(rr.designBytes))
		heap = append(heap, float64(rr.heapBytes)/(1<<20))
		setup = append(setup, rr.setups...)
	}
	n := float64(len(cycleMs))
	out := []metric{{"cycles_per_s", n / window.Seconds(), "1/s"}}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"cycle_p50_ms", cycleMs, 0.5}, {"cycle_p90_ms", cycleMs, 0.9},
		{"visible_p50_ms", visibleMs, 0.5}, {"visible_p90_ms", visibleMs, 0.9},
	} {
		v, err := percentile(p.xs, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out = append(out, metric{p.name, v, "ms"})
	}
	return append(out,
		metric{"cpu_ms_per_cycle", float64(cpu) / 1e6 / n, "ms"},
		metric{"space_amp", median(amp), "ratio"},
		metric{"heap_mb", median(heap), "MiB"},
		metric{"setup_s", median(setup), "s"},
	), nil
}

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// filesystemType names the filesystem holding dir.
func filesystemType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0xEF53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683E:
		return "btrfs", nil
	case 0x794C7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), nil
}

// cpuModel returns the processor model the kernel reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
