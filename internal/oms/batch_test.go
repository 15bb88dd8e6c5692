package oms

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// storeFingerprint captures everything observable about the store so tests
// can assert a failed batch left no trace at all.
func storeFingerprint(st *Store) string {
	var b strings.Builder
	for _, oid := range st.All("") {
		class, _ := st.ClassOf(oid)
		fmt.Fprintf(&b, "obj %d %s", oid, class)
		for _, attr := range []string{"name", "rev", "published", "data", "num"} {
			if v, ok, err := st.Get(oid, attr); err == nil && ok {
				fmt.Fprintf(&b, " %s=%s", attr, v.String())
			}
		}
		b.WriteString("\n")
	}
	for _, rel := range st.Schema().Rels() {
		for _, p := range st.Related(rel) {
			fmt.Fprintf(&b, "link %s %d->%d\n", rel, p.From, p.To)
		}
	}
	return b.String()
}

func TestBatchPlaceholderResolution(t *testing.T) {
	st := NewStore(testSchema(t))
	b := NewBatch()
	cell := b.Create("Cell", map[string]Value{"name": S("alu")})
	v1 := b.Create("Version", map[string]Value{"num": I(1)})
	v2 := b.Create("Version", map[string]Value{"num": I(2)})
	b.Link("hasVersion", cell, v1)
	b.Link("hasVersion", cell, v2)
	b.Set(cell, "rev", I(7))
	created, err := st.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 3 {
		t.Fatalf("created %d objects, want 3", len(created))
	}
	if cell != -1 || v1 != -2 || v2 != -3 {
		t.Fatalf("placeholders = %d,%d,%d, want -1,-2,-3", cell, v1, v2)
	}
	realCell := created[0]
	if got := st.GetInt(realCell, "rev"); got != 7 {
		t.Fatalf("rev = %d, want 7", got)
	}
	ts := st.Targets("hasVersion", realCell)
	if len(ts) != 2 || ts[0] != created[1] && ts[0] != created[2] {
		t.Fatalf("hasVersion targets = %v, want %v", ts, created[1:])
	}
	// Placeholders may also mix with real OIDs in one batch.
	b2 := NewBatch()
	v3 := b2.Create("Version", map[string]Value{"num": I(3)})
	b2.Link("hasVersion", realCell, v3)
	created2, err := st.Apply(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Targets("hasVersion", realCell); len(got) != 3 {
		t.Fatalf("after second batch: %d versions, want 3", len(got))
	}
	if !st.Exists(created2[0]) {
		t.Fatal("second batch's version missing")
	}
}

func TestBatchAllOrNothing(t *testing.T) {
	st := NewStore(testSchema(t))
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu"), "rev": I(1)})
	vOld := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := st.Link("hasVersion", cell, vOld); err != nil {
		t.Fatal(err)
	}
	before := storeFingerprint(st)
	opsBefore, _, _ := st.Stats()

	// Everything before the failing op must be rolled back: a fresh
	// version, its link, an attribute flip, a first set of an absent
	// attribute, an unlink of a live link.
	b := NewBatch()
	v := b.Create("Version", map[string]Value{"num": I(2)})
	b.Link("hasVersion", cell, v)
	b.Set(cell, "rev", I(99))
	b.Set(cell, "published", B(true))
	b.Unlink("hasVersion", cell, vOld)
	b.Link("hasVersion", OID(777777), v) // no such object: the batch dies here
	if _, err := st.Apply(b); err == nil {
		t.Fatal("batch with dangling link applied")
	}
	if after := storeFingerprint(st); after != before {
		t.Fatalf("failed batch left a trace:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if _, ok, _ := st.Get(cell, "published"); ok {
		t.Fatal("failed batch left a previously absent attribute set")
	}
	// The undone create must also leave the class index: Count and
	// All(class) answer from it, not from the object map.
	if got := st.All("Version"); st.Count("Version") != 1 || len(got) != 1 || got[0] != vOld {
		t.Fatalf("class index after failed create: Count=%d All=%v", st.Count("Version"), got)
	}
	if ops, _, _ := st.Stats(); ops <= opsBefore {
		// Rolled-back ops still count as performed operations (they ran);
		// this just pins that the counter moved, i.e. ops really executed
		// before the rollback.
		t.Fatalf("stats did not move (ops %d -> %d); did the batch run at all?", opsBefore, ops)
	}
}

func TestBatchValidationFailsBeforeAnyOp(t *testing.T) {
	st := NewStore(testSchema(t))
	before := storeFingerprint(st)
	opsBefore, _, _ := st.Stats()
	for _, tc := range []struct {
		name  string
		build func() *Batch
	}{
		{"unknown class", func() *Batch {
			b := NewBatch()
			b.Create("Nope", nil)
			return b
		}},
		{"missing required attr", func() *Batch {
			b := NewBatch()
			b.Create("Cell", nil)
			return b
		}},
		{"wrong attr kind", func() *Batch {
			b := NewBatch()
			b.Create("Cell", map[string]Value{"name": I(3)})
			return b
		}},
		{"unknown rel", func() *Batch {
			b := NewBatch()
			b.Link("nope", 1, 2)
			return b
		}},
		{"forward placeholder", func() *Batch {
			b := NewBatch()
			b.Link("hasVersion", -1, -2) // references creates that don't exist yet
			b.Create("Cell", map[string]Value{"name": S("x")})
			b.Create("Version", map[string]Value{"num": I(1)})
			return b
		}},
		{"missing copy-in file", func() *Batch {
			b := NewBatch()
			c := b.Create("Cell", map[string]Value{"name": S("x")})
			b.CopyIn(c, "data", "/no/such/file")
			return b
		}},
	} {
		if _, err := st.Apply(tc.build()); err == nil {
			t.Fatalf("%s: batch applied", tc.name)
		}
	}
	if after := storeFingerprint(st); after != before {
		t.Fatalf("validation failure left a trace:\n%s", after)
	}
	if ops, _, _ := st.Stats(); ops != opsBefore {
		t.Fatalf("validation failure executed ops: %d -> %d", opsBefore, ops)
	}
}

func TestBatchDeleteAndRollback(t *testing.T) {
	st := NewStore(testSchema(t))
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	v := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := st.Link("hasVersion", cell, v); err != nil {
		t.Fatal(err)
	}
	before := storeFingerprint(st)

	// Failed batch: the delete (and its link detach) must be undone.
	b := NewBatch()
	b.Delete(v)
	b.Link("hasVersion", cell, OID(777777))
	if _, err := st.Apply(b); err == nil {
		t.Fatal("batch applied")
	}
	if after := storeFingerprint(st); after != before {
		t.Fatalf("rolled-back delete left a trace:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got := st.All("Version"); st.Count("Version") != 1 || len(got) != 1 || got[0] != v {
		t.Fatalf("class index after failed delete: Count=%d All=%v", st.Count("Version"), got)
	}

	// Successful batch: delete + recreate in one atomic step.
	b2 := NewBatch()
	b2.Delete(v)
	nv := b2.Create("Version", map[string]Value{"num": I(2)})
	b2.Link("hasVersion", cell, nv)
	created, err := st.Apply(b2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Exists(v) {
		t.Fatal("deleted version still alive")
	}
	if ts := st.Targets("hasVersion", cell); len(ts) != 1 || ts[0] != created[0] {
		t.Fatalf("targets = %v, want [%d]", ts, created[0])
	}
}

func TestBatchCopyIn(t *testing.T) {
	st := NewStore(testSchema(t))
	src := filepath.Join(t.TempDir(), "design.dat")
	payload := []byte("netlist bytes")
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	cell := b.Create("Cell", map[string]Value{"name": S("alu")})
	b.CopyIn(cell, "data", src)
	created, err := st.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get(created[0], "data")
	if err != nil || !ok {
		t.Fatalf("data attr: ok=%v err=%v", ok, err)
	}
	if string(v.Blob) != string(payload) {
		t.Fatalf("data = %q, want %q", v.Blob, payload)
	}
}

func TestBatchMisuse(t *testing.T) {
	st := NewStore(testSchema(t))
	// Empty and nil batches are no-ops.
	if created, err := st.Apply(nil); err != nil || created != nil {
		t.Fatalf("nil batch: %v %v", created, err)
	}
	if created, err := st.Apply(NewBatch()); err != nil || created != nil {
		t.Fatalf("empty batch: %v %v", created, err)
	}
	// A batch is one-shot.
	b := NewBatch()
	b.Create("Cell", map[string]Value{"name": S("x")})
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(b); err == nil {
		t.Fatal("batch applied twice")
	}
	// Staged values are copies: mutating the caller's map or blob after
	// staging must not leak into the store.
	attrs := map[string]Value{"name": S("y"), "data": Bytes([]byte("abc"))}
	b2 := NewBatch()
	c := b2.Create("Cell", attrs)
	_ = c
	attrs["name"] = S("mutated")
	attrs["data"].Blob[0] = 'X'
	created, err := st.Apply(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.GetString(created[0], "name"); got != "y" {
		t.Fatalf("name = %q: staged attrs alias the caller's map", got)
	}
	if v, _, _ := st.Get(created[0], "data"); string(v.Blob) != "abc" {
		t.Fatalf("data = %q: staged blob aliases the caller's bytes", v.Blob)
	}
}

// TestBatchAtomicUnderConcurrency is the conformance-style -race test of
// the acceptance criteria: goroutines apply version-checkin-shaped batches
// (create + link + set), half of them induced to fail on their last op,
// while others read. At every instant and at the end, no Version object
// may exist without both its hasVersion link and its num attribute — a
// torn batch would leave exactly such an orphan.
func TestBatchAtomicUnderConcurrency(t *testing.T) {
	st := NewStore(testSchema(t))
	const designers = 8
	cells := make([]OID, designers)
	for i := range cells {
		cells[i] = mustCreate(t, st, "Cell", map[string]Value{"name": S(fmt.Sprintf("c%d", i))})
	}
	var wg, obsWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent observer: every Version it can see must be linked.
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range st.All("Version") {
				if len(st.Sources("hasVersion", v)) == 0 {
					t.Errorf("observed orphan version %d", v)
					return
				}
			}
		}
	}()
	const wantPerDesigner = 25
	for d := 0; d < designers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := NewBatch()
				v := b.Create("Version", map[string]Value{"num": I(int64(i))})
				b.Link("hasVersion", cells[d], v)
				b.Set(cells[d], "rev", I(int64(i)))
				if i%2 == 1 {
					b.Link("hasVersion", OID(888888), v) // induced failure
				}
				_, err := st.Apply(b)
				if (err == nil) != (i%2 == 0) {
					t.Errorf("designer %d batch %d: err=%v", d, i, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(stop)
	obsWG.Wait()
	if t.Failed() {
		return
	}
	if got := st.Count("Version"); got != designers*wantPerDesigner {
		t.Fatalf("%d versions survive, want %d", got, designers*wantPerDesigner)
	}
	for _, v := range st.All("Version") {
		if len(st.Sources("hasVersion", v)) != 1 {
			t.Fatalf("version %d has %d owners", v, len(st.Sources("hasVersion", v)))
		}
	}
}
