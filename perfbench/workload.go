package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fmcad"
	"repro/internal/oms"
	"repro/internal/tools/schematic"
)

// workload is one of the benchmark's input sets.
type workload int

const (
	checkinSmall workload = iota
	checkinLarge
	toolFlow
)

// workloadSpec fixes what one workload runs. Every round of a run
// replays the same number of cycles from the same seed: cost grows with
// version history, so a round of fixed length measures the same
// history on every commit and every machine.
type workloadSpec struct {
	name     string
	payload  int // bytes per checked-in design (checkin workloads)
	checkins int // CheckInData calls per cycle (checkin workloads)
	cycles   int // cycles per round, over all designers
}

var workloads = []workloadSpec{
	checkinSmall: {name: "checkin-small", payload: 4 << 10, checkins: 4, cycles: 1024},
	checkinLarge: {name: "checkin-large", payload: 4 << 20, checkins: 1, cycles: 192},
	toolFlow:     {name: "tool-flow", cycles: 192},
}

func lookupWorkload(name string) (workload, bool) {
	for i, s := range workloads {
		if s.name == name {
			return workload(i), true
		}
	}
	return 0, false
}

// checkpointEvery is how many completed cycles (over all designers) lie
// between two differential SaveTo checkpoints. The designer whose cycle
// completes the count writes the checkpoint after its cycle timer stops.
// At 15, a checkin-small round writes 68 checkpoints, so it crosses the
// framework's 64-delta chain bound once and pays one compaction to a
// full snapshot inside the measured window.
const checkpointEvery = 15

// designer is one closed-loop client: it runs its cycles back to back,
// with no think time.
type designer struct {
	id    int
	user  string
	cells []cell
	rng   *rand.Rand
	rec   *recorder // nil on untraced rounds
	dir   string    // private staging directory

	cycleMs, visibleMs []float64
	attempted, failed  int64
	designBytes        int64
	outputs            []oms.OID // tool-flow: every version the tools created
	imported, syncs    int64     // tool-flow: SyncLibrary results
}

// cycler runs one workload's cycles for one designer. prepare makes the
// cycle's inputs before its timer starts; run times the cycle on cell cl
// and reports when Publish began. A returned error is a failed
// correctness check; failed calls are counted on the designer instead,
// and run returns ok false.
type cycler interface {
	prepare(i int) error
	run(i int, cl cell) (publishAt time.Time, ok bool, err error)
}

// call times one public call into the system as a span and counts it as
// an attempted, and on error a failed, operation.
func (d *designer) call(kind spanKind, cycle int, fn func() error) bool {
	d.attempted++
	start := d.rec.now()
	err := fn()
	d.rec.record(kind, cycle, start)
	if err != nil {
		d.failed++
		fmt.Fprintf(os.Stderr, "perfbench: designer %d cycle %d: %s: %v\n", d.id, cycle, spanNames[kind], err)
		return false
	}
	return true
}

// harness times the harness's own work inside the loop.
func (d *designer) harness(cycle int, fn func() error) error {
	start := d.rec.now()
	err := fn()
	d.rec.record(spanHarness, cycle, start)
	return err
}

// readBack checks the replica view's copy of dov out and compares it
// with want: the end of every cycle, when a teammate reads the result.
func (d *designer) readBack(w *world, cycle int, dov oms.OID, want []byte) (bool, error) {
	out := filepath.Join(d.dir, "readback")
	if !d.call(spanRead, cycle, func() error { return w.view.CheckOutData(d.user, dov, out) }) {
		return false, nil
	}
	return true, d.harness(cycle, func() error {
		got, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replica read of version %d: %d bytes differ from the %d checked in", dov, len(got), len(want))
		}
		return nil
	})
}

// publishAndRead is the tail every workload shares: Publish, wait on
// the replica for the feed position after it, and read back.
func (d *designer) publishAndRead(w *world, cycle int, cv, dov oms.OID, want []byte, sync bool) (time.Time, bool, error) {
	publishAt := time.Now()
	if !d.call(spanPublish, cycle, func() error { return w.fw.Publish(d.user, cv) }) {
		return publishAt, false, nil
	}
	if sync && !d.call(spanSyncLibrary, cycle, func() error {
		n, err := w.hy.SyncLibrary()
		d.imported += int64(n)
		d.syncs++
		return err
	}) {
		return publishAt, false, nil
	}
	lsn := w.fw.FeedLSN()
	if !d.call(spanWaitFor, cycle, func() error { return w.rep.WaitFor(lsn, waitTimeout) }) {
		return publishAt, false, nil
	}
	ok, err := d.readBack(w, cycle, dov, want)
	return publishAt, ok, err
}

// abandon drops the reservation a failed cycle may still hold, so the
// next cycle on the cell can reserve it again.
func (d *designer) abandon(w *world, cv oms.OID) {
	if holder, held := w.fw.ReservedBy(cv); held && holder == d.user {
		if err := w.fw.ReleaseReservation(d.user, cv); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: designer %d: release after failure: %v\n", d.id, err)
		}
	}
}

// newCycler returns the cycler of workload wl for designer d.
func newCycler(wl workload, w *world, d *designer) cycler {
	if wl == toolFlow {
		return &toolCycler{w: w, d: d}
	}
	return newCheckinCycler(w, d, workloads[wl])
}

// checkinCycler is checkin-small and checkin-large: Reserve, a fixed
// number of CheckInData calls of fresh random designs, Publish, replica
// WaitFor and a byte-checked replica read of the newest version.
type checkinCycler struct {
	w        *world
	d        *designer
	payloads [][]byte
	paths    []string
}

func newCheckinCycler(w *world, d *designer, spec workloadSpec) *checkinCycler {
	c := &checkinCycler{w: w, d: d}
	for j := 0; j < spec.checkins; j++ {
		c.payloads = append(c.payloads, make([]byte, spec.payload))
		c.paths = append(c.paths, filepath.Join(d.dir, fmt.Sprintf("stage%d", j)))
	}
	return c
}

func (c *checkinCycler) prepare(i int) error {
	return c.d.harness(i, func() error {
		for j, p := range c.payloads {
			fill(c.d.rng, p)
			if err := os.WriteFile(c.paths[j], p, 0o644); err != nil {
				return err
			}
		}
		return nil
	})
}

func (c *checkinCycler) run(i int, cl cell) (time.Time, bool, error) {
	d, w := c.d, c.w
	if !d.call(spanReserve, i, func() error { return w.fw.Reserve(d.user, cl.cv) }) {
		return time.Time{}, false, nil
	}
	var dov oms.OID
	for j := range c.paths {
		if !d.call(spanCheckin, i, func() (err error) {
			dov, err = w.fw.CheckInData(d.user, cl.do, c.paths[j])
			return err
		}) {
			return time.Time{}, false, nil
		}
		d.designBytes += int64(len(c.payloads[j]))
	}
	if err := sampleQueue(w, d, i); err != nil {
		return time.Time{}, false, err
	}
	return d.publishAndRead(w, i, cl.cv, dov, c.payloads[len(c.payloads)-1], false)
}

// fill overwrites p with pseudo-random bytes from rng. Every checked-in
// payload is fresh, so the CAS never deduplicates.
func fill(rng *rand.Rand, p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
	for ; i < len(p); i++ {
		p[i] = byte(rng.Uint32())
	}
}

// toolCycler is tool-flow: the paper's encapsulated flow on core.Hybrid.
// Reserve, schematic entry of the fixed adder, a simulation with seeded
// operands whose sum is checked, layout entry, Publish, SyncLibrary,
// replica WaitFor and a byte-checked replica read of the layout.
type toolCycler struct {
	w        *world
	d        *designer
	stimulus []byte
	want     uint64 // a + b + cin of the prepared stimulus
}

func (c *toolCycler) prepare(i int) error {
	return c.d.harness(i, func() error {
		mask := uint64(1)<<adderBits - 1
		a, b, cin := c.d.rng.Uint64()&mask, c.d.rng.Uint64()&mask, c.d.rng.Uint64()&1
		c.stimulus, c.want = adderStimulus(a, b, cin), a+b+cin
		return nil
	})
}

func (c *toolCycler) run(i int, cl cell) (time.Time, bool, error) {
	d, w := c.d, c.w
	if !d.call(spanReserve, i, func() error { return w.fw.Reserve(d.user, cl.cv) }) {
		return time.Time{}, false, nil
	}
	var sch, sim, lay core.RunResult
	if !d.call(spanSchematic, i, func() (err error) {
		sch, err = w.hy.RunSchematicEntry(d.user, cl.cv, func(s *schematic.Schematic) error {
			return s.CopyFrom(cl.adder)
		}, core.RunOpts{})
		return err
	}) {
		return time.Time{}, false, nil
	}
	var waves []byte
	if !d.call(spanSimulate, i, func() (err error) {
		sim, waves, err = w.hy.RunSimulation(d.user, cl.cv, c.stimulus, core.RunOpts{})
		return err
	}) {
		return time.Time{}, false, nil
	}
	if err := d.harness(i, func() error {
		got, err := simulatedSum(waves, adderBits)
		if err != nil {
			return err
		}
		if got != c.want {
			return fmt.Errorf("simulated sum %d, want %d", got, c.want)
		}
		return nil
	}); err != nil {
		return time.Time{}, false, err
	}
	if !d.call(spanLayout, i, func() (err error) {
		lay, err = w.hy.RunLayoutEntry(d.user, cl.cv, nil, core.RunOpts{})
		return err
	}) {
		return time.Time{}, false, nil
	}
	d.outputs = append(d.outputs, sch.OutputDOV, sim.OutputDOV, lay.OutputDOV)
	var want []byte
	if err := d.harness(i, func() (err error) {
		want, err = os.ReadFile(w.hy.Lib.VersionPath(cl.fmcadCell, core.ViewLayout, lay.SlaveVersion))
		return err
	}); err != nil {
		return time.Time{}, false, err
	}
	if err := sampleQueue(w, d, i); err != nil {
		return time.Time{}, false, err
	}
	return d.publishAndRead(w, i, cl.cv, lay.OutputDOV, want, true)
}

// adderStimulus drives the adder's inputs at time 0 and runs long
// enough for the carry to ripple through every bit.
func adderStimulus(a, b, cin uint64) []byte {
	var s strings.Builder
	fmt.Fprintf(&s, "at 0 set cin %d\n", cin)
	for i := 0; i < adderBits; i++ {
		fmt.Fprintf(&s, "at 0 set a%d %d\nat 0 set b%d %d\n", i, a>>i&1, i, b>>i&1)
	}
	fmt.Fprintf(&s, "run %d\n", 100*adderBits)
	return []byte(s.String())
}

// simulatedSum reads the adder's settled outputs s0..s<bits-1> and cout
// from a waveform dump ("<time> <net> <value>" lines in time order).
func simulatedSum(waves []byte, bits int) (uint64, error) {
	final := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(waves))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 {
			final[f[1]] = f[2]
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	var sum uint64
	for i := 0; i <= bits; i++ {
		net := "cout"
		if i < bits {
			net = fmt.Sprintf("s%d", i)
		}
		switch final[net] {
		case "1":
			sum |= 1 << i
		case "0":
		default:
			return 0, fmt.Errorf("adder output %s settled at %q", net, final[net])
		}
	}
	return sum, nil
}

// sampler collects the per-cycle samples of traced rounds: the primary
// CAS's upload queue depth and the FMCAD .meta bytes written.
type sampler struct {
	mu          sync.Mutex
	queueMax    int64
	lastSeq     int64
	metaWritten int64
}

// sampleQueue records the primary CAS's upload queue depth just before
// Publish's durability gate, when it is deepest. Traced rounds only.
func sampleQueue(w *world, d *designer, cycle int) error {
	if d.rec == nil {
		return nil
	}
	return d.harness(cycle, func() error {
		depth, _ := w.blobReg.Snapshot()["blob_queue_depth"].(int64)
		w.samples.mu.Lock()
		if depth > w.samples.queueMax {
			w.samples.queueMax = depth
		}
		w.samples.mu.Unlock()
		return nil
	})
}

// sampleMeta charges the FMCAD library's mutations since the last
// sample at the current .meta size: every mutation rewrites the whole
// file. Traced tool-flow rounds only.
func sampleMeta(w *world, d *designer, cycle int) error {
	if d.rec == nil || w.hy == nil {
		return nil
	}
	return d.harness(cycle, func() error {
		w.samples.mu.Lock()
		defer w.samples.mu.Unlock()
		seq := w.hy.Lib.Seq()
		info, err := os.Stat(filepath.Join(w.hy.Lib.Dir(), fmcad.MetaFileName))
		if err != nil {
			return err
		}
		w.samples.metaWritten += (seq - w.samples.lastSeq) * info.Size()
		w.samples.lastSeq = seq
		return nil
	})
}

// loop runs one designer's cycles. completed counts cycles over all
// designers and decides who writes the next checkpoint.
func (d *designer) loop(w *world, cy cycler, n int, completed *atomic.Int64) error {
	if d.rec != nil {
		d.rec.wallStart = d.rec.now()
		defer func() { d.rec.wallEnd = d.rec.now() }()
	}
	for i := 0; i < n; i++ {
		if err := cy.prepare(i); err != nil {
			return err
		}
		cl := d.cells[i%len(d.cells)]
		start := time.Now()
		publishAt, ok, err := cy.run(i, cl)
		end := time.Now()
		if err != nil {
			return err
		}
		if ok {
			d.cycleMs = append(d.cycleMs, float64(end.Sub(start))/1e6)
			d.visibleMs = append(d.visibleMs, float64(end.Sub(publishAt))/1e6)
		} else {
			d.abandon(w, cl.cv)
		}
		if err := sampleMeta(w, d, i); err != nil {
			return err
		}
		if completed.Add(1)%checkpointEvery == 0 {
			d.call(spanSave, i, func() error { return w.fw.SaveTo(w.state) })
		}
	}
	return nil
}
