package jcf

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/oms"
	"repro/internal/oms/backend"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	w := newWorld(t, Release30)
	fw := w.fw

	// Populate: reservation, hierarchy, design data, flow progress.
	if err := fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	v1 := fw.Variants(w.cv)[0]
	do, err := fw.CreateDesignObject(v1, "alu-sch", w.schVT)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "d.sch")
	if err := os.WriteFile(src, []byte("schematic alu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dov, err := fw.CheckInData("anna", do, src)
	if err != nil {
		t.Fatal(err)
	}
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if err := fw.SubmitHierarchy(w.cv, cv2); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Release and resources survive.
	if ld.Release() != Release30 {
		t.Fatalf("release = %s", ld.Release())
	}
	if got := ld.Flows(); len(got) != 1 || got[0] != "asic" {
		t.Fatalf("flows = %v", got)
	}
	f, err := ld.Flow("asic")
	if err != nil || !f.Frozen() {
		t.Fatal("flow not restored frozen")
	}
	if got := f.Activities(); len(got) != 3 {
		t.Fatalf("activities = %v", got)
	}
	if got := f.Successors("schematic-entry"); len(got) != 1 || got[0] != "simulate" {
		t.Fatalf("precedes lost: %v", got)
	}
	// Project data survives (same OIDs).
	if got := ld.Cells(w.project); len(got) != 2 {
		t.Fatalf("cells = %v", got)
	}
	if ld.CellVersionNum(w.cv) != 1 {
		t.Fatal("cell version lost")
	}
	// Reservation survives.
	holder, held := ld.ReservedBy(w.cv)
	if !held || holder != "anna" {
		t.Fatalf("reservation lost: %q,%t", holder, held)
	}
	// Hierarchy survives.
	if got := ld.Children(w.cv); len(got) != 1 || got[0] != cv2 {
		t.Fatalf("hierarchy lost: %v", got)
	}
	// Design data survives, byte-exact.
	dst := filepath.Join(t.TempDir(), "out.sch")
	if err := ld.CheckOutData("anna", dov, dst); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dst)
	if err != nil || string(data) != "schematic alu\n" {
		t.Fatalf("design data lost: %q, %v", data, err)
	}
	// The restored framework is fully operational: publish then re-reserve.
	if err := ld.Publish("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	if err := ld.Reserve("bert", w.cv); err != nil {
		t.Fatal(err)
	}
	// New objects do not collide with old OIDs.
	cell3, err := ld.CreateCell(w.project, "mul")
	if err != nil {
		t.Fatal(err)
	}
	if cell3 == w.cell || cell3 == cell2 {
		t.Fatal("OID reuse after load")
	}
}

func TestSaveLoadRelease40State(t *testing.T) {
	w := newWorld(t, Release40)
	fw := w.fw
	cell2, _ := fw.CreateCell(w.project, "reg")
	cv2, _ := fw.CreateCellVersion(cell2, "asic", w.team)
	if err := fw.SubmitHierarchyTyped(w.cv, cv2, "layout"); err != nil {
		t.Fatal(err)
	}
	team2, _ := fw.CreateTeam("t2")
	project2, err := fw.CreateProject("p2", team2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.ShareCell(w.cell, project2); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Release() != Release40 {
		t.Fatal("release lost")
	}
	kids, err := ld.TypedChildren(w.cv, "layout")
	if err != nil || len(kids) != 1 || kids[0] != cv2 {
		t.Fatalf("typed hierarchy lost: %v, %v", kids, err)
	}
	shared, err := ld.SharedCells(project2)
	if err != nil || len(shared) != 1 || shared[0] != w.cell {
		t.Fatalf("shares lost: %v, %v", shared, err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("load of missing dir")
	}
	// Payload files without a CURRENT manifest are not committed state.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "framework.json"), []byte(`{"release":30}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("load without manifest: %v, want wrapped backend.ErrNotFound", err)
	}
	// A corrupt manifest is refused.
	if err := os.WriteFile(filepath.Join(dir, backend.ManifestKey), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	_ = oms.InvalidOID
	var errSentinel = errors.New("x")
	_ = errSentinel
}

// readCommitted resolves the committed payload pair of a state dir
// through its CURRENT manifest.
func readCommitted(t *testing.T, dir string) (fwPayload, omsPayload []byte) {
	t.Helper()
	b, err := backend.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	mdata, err := b.Get("CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		OMS       string `json:"oms"`
		Framework string `json:"framework"`
	}
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	fwPayload, err = b.Get(m.Framework)
	if err != nil {
		t.Fatal(err)
	}
	omsPayload, err = b.Get(m.OMS)
	if err != nil {
		t.Fatal(err)
	}
	return fwPayload, omsPayload
}

func TestSaveIsDeterministic(t *testing.T) {
	w := newWorld(t, Release30)
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := w.fw.Save(dir1); err != nil {
		t.Fatal(err)
	}
	if err := w.fw.Save(dir2); err != nil {
		t.Fatal(err)
	}
	fw1, oms1 := readCommitted(t, dir1)
	fw2, oms2 := readCommitted(t, dir2)
	if string(fw1) != string(fw2) {
		t.Fatal("framework payload not deterministic")
	}
	if string(oms1) != string(oms2) {
		t.Fatal("oms payload not deterministic")
	}
}

// TestSaveCommitIsAtomic corrupts a committed payload and expects Load to
// reject the pair via the manifest checksums instead of resurrecting
// inconsistent state.
func TestSaveCommitIsAtomic(t *testing.T) {
	w := newWorld(t, Release30)
	dir := t.TempDir()
	if err := w.fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the committed oms payload, bypassing Save.
	var m struct {
		OMS string `json:"oms"`
	}
	mdata, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(filepath.Join(dir, m.OMS))
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, m.OMS), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("corrupt committed payload accepted")
	}
}

// TestLoadRejectsTornPair builds, by hand, the exact artifact the old
// two-cut Save could produce — a framework payload whose reservation
// names a cell version absent from the oms payload — and expects Load to
// refuse it.
func TestLoadRejectsTornPair(t *testing.T) {
	w := newWorld(t, Release30)
	if err := w.fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.fw.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Pair the committed framework payload (reservation included) with
	// the oms payload of an EMPTY framework — mixed cuts.
	empty, err := New(Release30)
	if err != nil {
		t.Fatal(err)
	}
	emptyDir := t.TempDir()
	if err := empty.Save(emptyDir); err != nil {
		t.Fatal(err)
	}
	fwPayload, _ := readCommitted(t, dir)
	_, emptyOMS := readCommitted(t, emptyDir)

	torn := t.TempDir()
	b, err := backend.OpenFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("framework@1", fwPayload); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("oms@1", emptyOMS); err != nil {
		t.Fatal(err)
	}
	// Valid checksums: only the pair's mutual-consistency check stands
	// between this commit and a resurrected torn state.
	if err := backend.PutManifest(b, backend.Manifest{
		Epoch:        1,
		OMS:          "oms@1",
		Framework:    "framework@1",
		OMSSum:       backend.SHA256Hex(emptyOMS),
		FrameworkSum: backend.SHA256Hex(fwPayload),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(torn); err == nil {
		t.Fatal("torn (framework, oms) pair accepted")
	}
}

// TestSaveLoadThroughSegmentBackend round-trips the framework through the
// append-only WAL backend — the same public Save/Load semantics over the
// second storage implementation.
func TestSaveLoadThroughSegmentBackend(t *testing.T) {
	w := newWorld(t, Release30)
	if err := w.fw.Reserve("anna", w.cv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	// Save twice: the segment backend is delta-capable, and nothing
	// changed since epoch 1, so epoch 2 is a differential commit that
	// re-binds the epoch-1 base snapshot — no second OMS payload exists.
	if err := w.fw.SaveTo(seg); err != nil {
		t.Fatal(err)
	}
	reopened, err := backend.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := LoadFrom(reopened)
	if err != nil {
		t.Fatal(err)
	}
	holder, held := ld.ReservedBy(w.cv)
	if !held || holder != "anna" {
		t.Fatalf("reservation lost through segment backend: %q,%t", holder, held)
	}
	if got := ld.Flows(); len(got) != 1 || got[0] != "asic" {
		t.Fatalf("flows = %v", got)
	}
	names, err := reopened.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CURRENT", "framework@1", "framework@2", "oms@1"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("after full + differential save want %v, got %v", want, names)
	}
	// A loaded framework has no differential anchor, so its next save is
	// a full base snapshot (epoch 3). GC retains what the new AND the
	// previous manifest reference — the epoch-2 manifest still names the
	// epoch-1 base — and collects the rest (framework@1).
	if err := ld.SaveTo(reopened); err != nil {
		t.Fatal(err)
	}
	names, err = reopened.List()
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"CURRENT", "framework@2", "framework@3", "oms@1", "oms@3"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("after full save over differential chain want %v, got %v", want, names)
	}
}
