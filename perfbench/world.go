package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
	"repro/internal/repl"
	"repro/internal/tools/schematic"
)

const (
	// spillThreshold is the primary's blob-store spill size: 4 KiB
	// designs stay inline, 4 MiB designs go to the CAS.
	spillThreshold = 64 << 10
	// cellsPerDesigner is how many cells each designer owns and cycles
	// through; nobody else reserves them.
	cellsPerDesigner = 4
	// adderBits sizes the tool-flow schematic. Its schematic, waveform
	// and layout all stay below spillThreshold.
	adderBits = 8
	// waitTimeout bounds every replica barrier.
	waitTimeout = 60 * time.Second
)

// countingBackend is the primary's state backend: a segment backend
// that also counts what SaveTo writes through it.
type countingBackend struct {
	*backend.Segment
	putBytes atomic.Int64
}

func (c *countingBackend) Put(name string, payload []byte) error {
	if err := c.Segment.Put(name, payload); err != nil {
		return err
	}
	c.putBytes.Add(int64(len(payload)))
	return nil
}

// cell is one cell a designer owns.
type cell struct {
	cv oms.OID
	do oms.OID // the design object checkins go to (checkin workloads)
	// fmcadCell and adder are set on tool-flow: the bound FMCAD cell and
	// the fixed schematic entered into it every cycle.
	fmcadCell string
	adder     *schematic.Schematic
}

// world is one primary with its state backend and CAS, one in-process
// replica with its own CAS, and a read-only view of the replica. On
// tool-flow the primary is the master of a core.Hybrid.
type world struct {
	dir      string
	fw       *jcf.Framework
	hy       *core.Hybrid // tool-flow only
	state    *countingBackend
	pub      *repl.Publisher
	served   chan struct{} // closed when the publisher's Serve returns
	rep      *repl.Replica
	repBlobs *blobstore.Store
	view     *jcf.Framework
	notifier *jcf.Notifier // tool-flow only
	users    []string
	cells    [][]cell // per designer

	// reg holds the primary side's instruments (framework, store, CAS,
	// publisher, notifier), repReg the replica's and its CAS's, blobReg
	// the primary CAS's alone (sampled every cycle on traced rounds).
	reg, repReg, blobReg *obs.Registry
	samples              sampler
}

// buildWorld sets up a fresh world in dir for the given number of
// designers and waits until the replica has caught up.
func buildWorld(dir string, wl workload, designers int) (w *world, err error) {
	w = &world{dir: dir, cells: make([][]cell, designers)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if wl == toolFlow {
		if w.hy, err = core.NewHybrid(jcf.Release30, filepath.Join(dir, "hybrid")); err != nil {
			return w, err
		}
		w.fw = w.hy.JCF
	} else if w.fw, err = jcf.New(jcf.Release30); err != nil {
		return w, err
	}
	fw := w.fw
	cas, err := backend.OpenFile(filepath.Join(dir, "cas"))
	if err != nil {
		return w, err
	}
	if err := fw.EnableBlobStore(cas, spillThreshold); err != nil {
		return w, err
	}

	team, err := fw.CreateTeam("designers")
	if err != nil {
		return w, err
	}
	for d := 0; d < designers; d++ {
		name := fmt.Sprintf("d%d", d)
		uid, err := fw.CreateUser(name)
		if err != nil {
			return w, err
		}
		if err := fw.AddMember(team, uid); err != nil {
			return w, err
		}
		w.users = append(w.users, name)
	}
	project, err := fw.CreateProject("bench", team)
	if err != nil {
		return w, err
	}
	if wl == toolFlow {
		err = w.bindToolCells(project, team)
	} else {
		err = w.makeCheckinCells(project, team)
	}
	if err != nil {
		return w, err
	}

	seg, err := backend.OpenSegment(filepath.Join(dir, "state"))
	if err != nil {
		return w, err
	}
	w.state = &countingBackend{Segment: seg}
	// The first save writes the base snapshot the differential
	// checkpoints of the measured window append to.
	if err := fw.SaveTo(w.state); err != nil {
		return w, err
	}

	schema, err := fw.Model().Schema()
	if err != nil {
		return w, err
	}
	repCAS, err := backend.OpenFile(filepath.Join(dir, "replica-cas"))
	if err != nil {
		return w, err
	}
	if w.repBlobs, err = blobstore.New(repCAS); err != nil {
		return w, err
	}
	w.pub = repl.NewPublisher(fw.ReplicationSource())
	ln, dialer := repl.Pipe()
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		if err := w.pub.Serve(ln); err != nil && !errors.Is(err, repl.ErrClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: publisher: %v\n", err)
		}
	}()
	w.rep = repl.NewReplica(schema, dialer, repl.WithBlobStore(w.repBlobs), repl.WithReconnectBackoff(time.Millisecond))
	w.rep.Start()
	if w.view, err = jcf.NewReplicaView(w.rep.Store(), fw.Release()); err != nil {
		return w, err
	}
	if wl == toolFlow {
		if w.notifier, err = w.hy.StartToolNotifications(); err != nil {
			return w, err
		}
	}

	w.reg, w.repReg, w.blobReg = obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	fw.RegisterMetrics(w.reg)
	w.pub.RegisterMetrics(w.reg)
	if w.notifier != nil {
		w.notifier.RegisterMetrics(w.reg)
	}
	w.rep.RegisterMetrics(w.repReg)
	w.repBlobs.RegisterMetrics(w.repReg)
	fw.BlobStore().RegisterMetrics(w.blobReg)

	if err := w.rep.WaitFor(fw.FeedLSN(), waitTimeout); err != nil {
		return w, fmt.Errorf("replica catch-up: %w", err)
	}
	return w, nil
}

// makeCheckinCells gives every designer cellsPerDesigner cells, each
// with one cell version holding one design object.
func (w *world) makeCheckinCells(project, team oms.OID) error {
	fw := w.fw
	vt, err := fw.CreateViewType("design")
	if err != nil {
		return err
	}
	f := flow.New("edit")
	if err := f.AddActivity(flow.Activity{Name: "edit"}); err != nil {
		return err
	}
	if _, err := fw.RegisterFlow(f); err != nil {
		return err
	}
	for d := range w.cells {
		for c := 0; c < cellsPerDesigner; c++ {
			name := fmt.Sprintf("d%dc%d", d, c)
			cl, err := fw.CreateCell(project, name)
			if err != nil {
				return err
			}
			cv, err := fw.CreateCellVersion(cl, "edit", team)
			if err != nil {
				return err
			}
			do, err := fw.CreateDesignObject(fw.Variants(cv)[0], name+"-data", vt)
			if err != nil {
				return err
			}
			w.cells[d] = append(w.cells[d], cell{cv: cv, do: do})
		}
	}
	return nil
}

// bindToolCells gives every designer cellsPerDesigner cells bound to
// FMCAD cells, each with the adder its schematic entry writes.
func (w *world) bindToolCells(project, team oms.OID) error {
	for d := range w.cells {
		for c := 0; c < cellsPerDesigner; c++ {
			cv, err := w.hy.NewDesignCell(project, fmt.Sprintf("d%dc%d", d, c), w.hy.DefaultFlowName(), team)
			if err != nil {
				return err
			}
			b, err := w.hy.BindingFor(cv)
			if err != nil {
				return err
			}
			adder, err := schematic.GenRippleAdder(b.FMCADCell, adderBits)
			if err != nil {
				return err
			}
			w.cells[d] = append(w.cells[d], cell{cv: cv, fmcadCell: b.FMCADCell, adder: adder})
		}
	}
	return nil
}

// verify runs the end-of-round correctness checks on a quiescent world
// whose final checkpoint has been written.
func (w *world) verify() error {
	if err := w.rep.WaitFor(w.fw.FeedLSN(), waitTimeout); err != nil {
		return fmt.Errorf("final replica catch-up: %w", err)
	}
	primary, err := fingerprint(w.fw.ReplicationSource().Snapshot())
	if err != nil {
		return err
	}
	replica, err := fingerprint(w.rep.Store().Snapshot())
	if err != nil {
		return err
	}
	if primary != replica {
		return fmt.Errorf("replica snapshot %s differs from primary %s", replica, primary)
	}
	if probs := w.fw.CheckConsistency(); len(probs) != 0 {
		return fmt.Errorf("primary inconsistent: %v", probs)
	}
	if probs := w.view.CheckConsistency(); len(probs) != 0 {
		return fmt.Errorf("replica view inconsistent: %v", probs)
	}
	loaded, err := jcf.LoadFrom(w.state)
	if err != nil {
		return fmt.Errorf("load of final checkpoint: %w", err)
	}
	reloaded, err := fingerprint(loaded.ReplicationSource().Snapshot())
	if err != nil {
		return err
	}
	if reloaded != primary {
		return fmt.Errorf("reloaded checkpoint %s differs from primary %s", reloaded, primary)
	}
	if w.hy != nil {
		if probs := w.hy.VerifyMapping(); len(probs) != 0 {
			return fmt.Errorf("mapping: %v", probs)
		}
		probs, err := w.hy.SlaveSyncCheck()
		if err != nil {
			return fmt.Errorf("slave sync check: %w", err)
		}
		if len(probs) != 0 {
			return fmt.Errorf("slave sync: %v", probs)
		}
	}
	return nil
}

// close stops the notifier, the replica and the publisher, waits for
// the publisher's Serve to return and removes the world's directory.
func (w *world) close() {
	if w.notifier != nil {
		w.notifier.Stop()
	}
	if w.rep != nil {
		w.rep.Close()
	}
	if w.pub != nil {
		w.pub.Close()
		<-w.served
	}
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", w.dir, err)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
