package oms

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// testSchema builds a small schema used throughout the tests.
func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Cell",
		AttrDef{Name: "name", Kind: KindString, Required: true},
		AttrDef{Name: "rev", Kind: KindInt},
		AttrDef{Name: "published", Kind: KindBool},
		AttrDef{Name: "data", Kind: KindBlob},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("Version",
		AttrDef{Name: "num", Kind: KindInt, Required: true},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRel(RelDef{Name: "hasVersion", From: "Cell", To: "Version", FromCard: One, ToCard: Many}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRel(RelDef{Name: "master", From: "Cell", To: "Version", FromCard: Many, ToCard: One}); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustCreate(t *testing.T, st *Store, class string, attrs map[string]Value) OID {
	t.Helper()
	oid, err := st.Create(class, attrs)
	if err != nil {
		t.Fatalf("Create(%s): %v", class, err)
	}
	return oid
}

func TestSchemaDuplicates(t *testing.T) {
	s := NewSchema()
	if err := s.AddClass("A"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("A"); err == nil {
		t.Fatal("duplicate class accepted")
	}
	if err := s.AddClass(""); err == nil {
		t.Fatal("empty class name accepted")
	}
	if err := s.AddClass("B", AttrDef{Name: "x"}, AttrDef{Name: "x"}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if err := s.AddRel(RelDef{Name: "r", From: "A", To: "Missing"}); err == nil {
		t.Fatal("relationship to unknown class accepted")
	}
	if err := s.AddRel(RelDef{Name: "r", From: "A", To: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRel(RelDef{Name: "r", From: "A", To: "A"}); err == nil {
		t.Fatal("duplicate relationship accepted")
	}
}

func TestCreateRequiresAttrs(t *testing.T) {
	st := NewStore(testSchema(t))
	if _, err := st.Create("Cell", nil); err == nil {
		t.Fatal("missing required attribute accepted")
	}
	if _, err := st.Create("Nope", nil); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := st.Create("Cell", map[string]Value{"name": I(3)}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := st.Create("Cell", map[string]Value{"name": S("alu"), "bogus": S("x")}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestAttrRoundTrip(t *testing.T) {
	st := NewStore(testSchema(t))
	oid := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	if got := st.GetString(oid, "name"); got != "alu" {
		t.Fatalf("name = %q, want alu", got)
	}
	if err := st.Set(oid, "rev", I(7)); err != nil {
		t.Fatal(err)
	}
	if got := st.GetInt(oid, "rev"); got != 7 {
		t.Fatalf("rev = %d, want 7", got)
	}
	if err := st.Set(oid, "published", B(true)); err != nil {
		t.Fatal(err)
	}
	if !st.GetBool(oid, "published") {
		t.Fatal("published = false, want true")
	}
	// Absent attribute: ok=false, no error.
	_, ok, err := st.Get(oid, "data")
	if err != nil || ok {
		t.Fatalf("Get(absent) = ok=%t err=%v, want false,nil", ok, err)
	}
	// Kind mismatch on Set.
	if err := st.Set(oid, "rev", S("x")); err == nil {
		t.Fatal("kind mismatch accepted on Set")
	}
}

func TestBlobIsolation(t *testing.T) {
	st := NewStore(testSchema(t))
	oid := mustCreate(t, st, "Cell", map[string]Value{"name": S("c")})
	buf := []byte("hello")
	if err := st.Set(oid, "data", Bytes(buf)); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller mutates its copy; store must be unaffected
	v, ok, err := st.Get(oid, "data")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%t err=%v", ok, err)
	}
	if string(v.Blob) != "hello" {
		t.Fatalf("store aliased caller buffer: %q", v.Blob)
	}
	v.Blob[0] = 'Y' // mutate returned copy; store must be unaffected
	v2, _, _ := st.Get(oid, "data")
	if string(v2.Blob) != "hello" {
		t.Fatalf("returned blob aliases store: %q", v2.Blob)
	}
}

func TestLinkCardinality(t *testing.T) {
	st := NewStore(testSchema(t))
	c1 := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	c2 := mustCreate(t, st, "Cell", map[string]Value{"name": S("b")})
	v1 := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	v2 := mustCreate(t, st, "Version", map[string]Value{"num": I(2)})

	// hasVersion: FromCard=One (a version belongs to one cell), ToCard=Many.
	if err := st.Link("hasVersion", c1, v1); err != nil {
		t.Fatal(err)
	}
	if err := st.Link("hasVersion", c1, v2); err != nil {
		t.Fatal(err)
	}
	// v1 already owned by c1; c2 may not claim it.
	if err := st.Link("hasVersion", c2, v1); err == nil {
		t.Fatal("FromCard=One violated")
	}
	// Idempotent re-link is fine.
	if err := st.Link("hasVersion", c1, v1); err != nil {
		t.Fatalf("idempotent link: %v", err)
	}
	// master: ToCard=One (a cell has a single master version).
	if err := st.Link("master", c1, v1); err != nil {
		t.Fatal(err)
	}
	if err := st.Link("master", c1, v2); err == nil {
		t.Fatal("ToCard=One violated")
	}
	// Class checking.
	if err := st.Link("hasVersion", v1, c1); err == nil {
		t.Fatal("endpoint classes not checked")
	}
	if err := st.Link("nope", c1, v1); err == nil {
		t.Fatal("unknown relationship accepted")
	}

	got := st.Targets("hasVersion", c1)
	if len(got) != 2 || got[0] != v1 || got[1] != v2 {
		t.Fatalf("Targets = %v, want [%d %d]", got, v1, v2)
	}
	if src := st.Sources("hasVersion", v1); len(src) != 1 || src[0] != c1 {
		t.Fatalf("Sources = %v, want [%d]", src, c1)
	}
	if st.Target("master", c1) != v1 {
		t.Fatalf("Target(master) = %d, want %d", st.Target("master", c1), v1)
	}
}

func TestUnlink(t *testing.T) {
	st := NewStore(testSchema(t))
	c := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	v := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := st.Link("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}
	if err := st.Unlink("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}
	if got := st.Targets("hasVersion", c); len(got) != 0 {
		t.Fatalf("Targets after unlink = %v", got)
	}
	// Unlink of absent link is a no-op.
	if err := st.Unlink("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}
	// After unlink the cardinality slot is free again.
	if err := st.Link("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteDetaches(t *testing.T) {
	st := NewStore(testSchema(t))
	c := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	v := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := st.Link("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(v); err != nil {
		t.Fatal(err)
	}
	if st.Exists(v) {
		t.Fatal("deleted object still exists")
	}
	if got := st.Targets("hasVersion", c); len(got) != 0 {
		t.Fatalf("dangling link after delete: %v", got)
	}
	if err := st.Delete(v); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestQueries(t *testing.T) {
	st := NewStore(testSchema(t))
	a := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	b := mustCreate(t, st, "Cell", map[string]Value{"name": S("mul")})
	mustCreate(t, st, "Version", map[string]Value{"num": I(1)})

	if got := st.All("Cell"); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("All(Cell) = %v", got)
	}
	if got := st.All(""); len(got) != 3 {
		t.Fatalf("All() = %v", got)
	}
	if got := st.FindByAttr("Cell", "name", S("mul")); len(got) != 1 || got[0] != b {
		t.Fatalf("FindByAttr = %v", got)
	}
	if got := st.FindByAttr("", "name", S("alu")); len(got) != 1 || got[0] != a {
		t.Fatalf("FindByAttr any class = %v", got)
	}
	if st.Count("Cell") != 2 || st.Count("Version") != 1 || st.Count("") != 3 {
		t.Fatal("Count mismatch")
	}
	if cls, err := st.ClassOf(a); err != nil || cls != "Cell" {
		t.Fatalf("ClassOf = %q, %v", cls, err)
	}
	if _, err := st.ClassOf(9999); err == nil {
		t.Fatal("ClassOf unknown oid accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	schema := testSchema(t)
	st := NewStore(schema)
	c := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu"), "rev": I(3), "data": Bytes([]byte{1, 2, 3})})
	v := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := st.Link("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}

	data, err := st.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	ld, err := DecodeSnapshot(data, schema)
	if err != nil {
		t.Fatal(err)
	}
	if ld.GetString(c, "name") != "alu" || ld.GetInt(c, "rev") != 3 {
		t.Fatal("attributes lost in round-trip")
	}
	blob, ok, err := ld.Get(c, "data")
	if err != nil || !ok || len(blob.Blob) != 3 || blob.Blob[2] != 3 {
		t.Fatalf("blob lost: %v %t %v", blob, ok, err)
	}
	if got := ld.Targets("hasVersion", c); len(got) != 1 || got[0] != v {
		t.Fatalf("links lost: %v", got)
	}
	// New objects in the loaded store must not collide with old OIDs.
	n, err := ld.Create("Cell", map[string]Value{"name": S("new")})
	if err != nil {
		t.Fatal(err)
	}
	if n == c || n == v {
		t.Fatalf("OID reuse after load: %d", n)
	}
}

func TestLoadRejectsUnknownClass(t *testing.T) {
	schema := testSchema(t)
	st := NewStore(schema)
	mustCreate(t, st, "Cell", map[string]Value{"name": S("x")})
	data, err := st.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	empty := NewSchema()
	if _, err := DecodeSnapshot(data, empty); err == nil {
		t.Fatal("decode against incompatible schema accepted")
	}
	if _, err := DecodeSnapshot([]byte("{nope"), schema); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestCopyInOut(t *testing.T) {
	st := NewStore(testSchema(t))
	oid := mustCreate(t, st, "Cell", map[string]Value{"name": S("c")})
	dir := t.TempDir()
	src := filepath.Join(dir, "design.txt")
	content := strings.Repeat("wire w;\n", 100)
	if err := os.WriteFile(src, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := st.CopyIn(oid, "data", src)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Fatalf("CopyIn = %d bytes, want %d", n, len(content))
	}
	dst := filepath.Join(dir, "out", "design.txt")
	m, err := st.CopyOut(oid, "data", dst)
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("CopyOut = %d bytes, want %d", m, n)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != content {
		t.Fatal("staged file content mismatch")
	}
	// Stats must reflect the blob traffic.
	_, in, out := st.Stats()
	if in < n || out < n {
		t.Fatalf("Stats blobIn=%d blobOut=%d, want >= %d each", in, out, n)
	}
	// Errors.
	if _, err := st.CopyIn(oid, "data", filepath.Join(dir, "missing")); err == nil {
		t.Fatal("CopyIn of missing file accepted")
	}
	if _, err := st.CopyOut(oid, "rev", dst); err == nil {
		t.Fatal("CopyOut of non-blob accepted")
	}
	if _, err := st.CopyOut(oid, "nothere", dst); err == nil {
		t.Fatal("CopyOut of absent attribute accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := NewStore(testSchema(t))
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				oid, err := st.Create("Cell", map[string]Value{"name": S("c")})
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				if err := st.Set(oid, "rev", I(int64(i))); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				_ = st.GetInt(oid, "rev")
				_ = st.All("Cell")
			}
		}(w)
	}
	wg.Wait()
	if got := st.Count("Cell"); got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
}

// Property: OIDs are unique and strictly increasing over any create sequence.
func TestPropertyOIDsUnique(t *testing.T) {
	st := NewStore(testSchema(t))
	f := func(names []string) bool {
		seen := map[OID]bool{}
		var last OID
		for _, n := range names {
			oid, err := st.Create("Cell", map[string]Value{"name": S(n)})
			if err != nil {
				return false
			}
			if seen[oid] || oid <= last {
				return false
			}
			seen[oid] = true
			last = oid
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Set/Get round-trips arbitrary strings and blobs exactly.
func TestPropertySetGetRoundTrip(t *testing.T) {
	st := NewStore(testSchema(t))
	oid := mustCreate(t, st, "Cell", map[string]Value{"name": S("p")})
	f := func(s string, blob []byte) bool {
		if err := st.Set(oid, "name", S(s)); err != nil {
			return false
		}
		if st.GetString(oid, "name") != s {
			return false
		}
		if err := st.Set(oid, "data", Bytes(blob)); err != nil {
			return false
		}
		v, ok, err := st.Get(oid, "data")
		if err != nil || !ok {
			return false
		}
		return v.Equal(Bytes(blob))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValueEqualAndString(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{S("x"), S("x"), true},
		{S("x"), S("y"), false},
		{I(1), I(1), true},
		{I(1), I(2), false},
		{B(true), B(true), true},
		{B(true), B(false), false},
		{Bytes([]byte{1}), Bytes([]byte{1}), true},
		{Bytes([]byte{1}), Bytes([]byte{2}), false},
		{Bytes([]byte{1}), Bytes([]byte{1, 2}), false},
		{S("1"), I(1), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("case %d: Equal = %t, want %t", i, got, c.eq)
		}
	}
	for _, v := range []Value{S("a"), I(1), B(true), Bytes([]byte{1})} {
		if v.String() == "" {
			t.Errorf("empty String() for %v", v.Kind)
		}
	}
	if KindString.String() != "string" || KindBlob.String() != "blob" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind String empty")
	}
}

// --- sharded-kernel tests ------------------------------------------------

func TestRelatedAndObjectsOf(t *testing.T) {
	st := NewStore(testSchema(t))
	c1 := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	c2 := mustCreate(t, st, "Cell", map[string]Value{"name": S("b")})
	v1 := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	v2 := mustCreate(t, st, "Version", map[string]Value{"num": I(2)})
	if err := st.Link("hasVersion", c1, v1); err != nil {
		t.Fatal(err)
	}
	if err := st.Link("hasVersion", c2, v2); err != nil {
		t.Fatal(err)
	}
	got := st.Related("hasVersion")
	want := []LinkPair{{From: c1, To: v1}, {From: c2, To: v2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Related = %v, want %v", got, want)
	}
	if objs := st.ObjectsOf("hasVersion"); len(objs) != 2 || objs[0] != c1 || objs[1] != c2 {
		t.Fatalf("ObjectsOf = %v", objs)
	}
	// Unlinking the last link of an object drops it from the index.
	if err := st.Unlink("hasVersion", c1, v1); err != nil {
		t.Fatal(err)
	}
	if objs := st.ObjectsOf("hasVersion"); len(objs) != 1 || objs[0] != c2 {
		t.Fatalf("ObjectsOf after unlink = %v", objs)
	}
	if pairs := st.Related("nope"); len(pairs) != 0 {
		t.Fatalf("Related(unknown) = %v", pairs)
	}
}

func TestClassIndexSurvivesDeleteAndRollback(t *testing.T) {
	st := NewStore(testSchema(t))
	a := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	b := mustCreate(t, st, "Cell", map[string]Value{"name": S("b")})
	if err := st.Delete(a); err != nil {
		t.Fatal(err)
	}
	if got := st.All("Cell"); len(got) != 1 || got[0] != b {
		t.Fatalf("All after delete = %v", got)
	}
	if st.Count("Cell") != 1 {
		t.Fatalf("Count after delete = %d", st.Count("Cell"))
	}
}

// TestNoInternalAliasing is the regression test for the "callers get
// copies, never internal references" invariant: mutate everything a getter
// returns and assert the store is unchanged.
func TestNoInternalAliasing(t *testing.T) {
	schema := testSchema(t)
	st := NewStore(schema)
	c := mustCreate(t, st, "Cell", map[string]Value{"name": S("a"), "data": Bytes([]byte("orig"))})
	v := mustCreate(t, st, "Version", map[string]Value{"num": I(1)})
	if err := st.Link("hasVersion", c, v); err != nil {
		t.Fatal(err)
	}

	// Blob values are copies both ways (also covered by TestBlobIsolation).
	val, _, _ := st.Get(c, "data")
	copy(val.Blob, "XXXX")
	if again, _, _ := st.Get(c, "data"); string(again.Blob) != "orig" {
		t.Fatalf("Get leaked internal blob: %q", again.Blob)
	}

	// Relationship listings are private slices.
	ts := st.Targets("hasVersion", c)
	ts[0] = 9999
	if again := st.Targets("hasVersion", c); len(again) != 1 || again[0] != v {
		t.Fatalf("Targets leaked internal state: %v", again)
	}
	ss := st.Sources("hasVersion", v)
	ss[0] = 9999
	if again := st.Sources("hasVersion", v); len(again) != 1 || again[0] != c {
		t.Fatalf("Sources leaked internal state: %v", again)
	}

	// Schema declarations are copies: mutating them must not corrupt
	// the store's validation.
	cls := schema.Class("Cell")
	cls.Attrs[0] = AttrDef{Name: "hacked", Kind: KindInt}
	cls.Name = "Hacked"
	if _, err := st.Create("Cell", map[string]Value{"name": S("b")}); err != nil {
		t.Fatalf("schema corrupted through Class() copy: %v", err)
	}
	rel := schema.Rel("hasVersion")
	rel.ToCard = One
	if err := st.Link("hasVersion", c, mustCreateVersion(t, st, 2)); err != nil {
		t.Fatalf("schema corrupted through Rel() copy: %v", err)
	}
	if schema.Class("Nope") != nil || schema.Rel("nope") != nil {
		t.Fatal("unknown lookups must return nil")
	}

	// Related pairs are private slices.
	pairs := st.Related("hasVersion")
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	pairs[0] = LinkPair{From: 1234, To: 4321}
	if again := st.Related("hasVersion"); again[0].From != c {
		t.Fatalf("Related leaked internal state: %v", again)
	}
}

func mustCreateVersion(t *testing.T, st *Store, num int64) OID {
	t.Helper()
	return mustCreate(t, st, "Version", map[string]Value{"num": I(num)})
}

// TestStressParallelMixedOps hammers the striped store from many
// goroutines with creates, sets, links, reads and deletes. Run under
// -race it is the kernel's data-race detector; the final invariants check
// that indexes and object maps agree after the storm.
func TestStressParallelMixedOps(t *testing.T) {
	st := NewStore(testSchema(t))
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []OID
			for i := 0; i < perWorker; i++ {
				cell, err := st.Create("Cell", map[string]Value{"name": S("c")})
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				ver, err := st.Create("Version", map[string]Value{"num": I(int64(i))})
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				if err := st.Set(cell, "rev", I(int64(i))); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if err := st.Link("hasVersion", cell, ver); err != nil {
					t.Errorf("Link: %v", err)
					return
				}
				_ = st.GetInt(cell, "rev")
				_ = st.Targets("hasVersion", cell)
				_ = st.Count("Cell")
				if i%10 == 0 {
					_ = st.All("Cell")
					_ = st.Related("hasVersion")
				}
				mine = append(mine, cell)
				// Periodically delete one of our own earlier cells (its
				// version link detaches with it).
				if i%7 == 3 && len(mine) > 1 {
					victim := mine[0]
					mine = mine[1:]
					if err := st.Delete(victim); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Index and object map must agree exactly.
	for _, class := range []string{"Cell", "Version"} {
		oids := st.All(class)
		if len(oids) != st.Count(class) {
			t.Fatalf("index/count mismatch for %s: %d vs %d", class, len(oids), st.Count(class))
		}
		for _, oid := range oids {
			got, err := st.ClassOf(oid)
			if err != nil || got != class {
				t.Fatalf("index entry %d: ClassOf = %q, %v", oid, got, err)
			}
		}
	}
	// Every remaining hasVersion pair must join two live objects.
	for _, p := range st.Related("hasVersion") {
		if !st.Exists(p.From) || !st.Exists(p.To) {
			t.Fatalf("dangling pair %v", p)
		}
	}
}

// TestStripeDistribution guards the stripe hash: sequential OIDs must
// spread across many stripes, not cluster in one.
func TestStripeDistribution(t *testing.T) {
	seen := map[int]bool{}
	for oid := OID(1); oid <= 256; oid++ {
		idx := stripeIdx(oid)
		if idx < 0 || idx >= numStripes {
			t.Fatalf("stripeIdx(%d) = %d out of range", oid, idx)
		}
		seen[idx] = true
	}
	if len(seen) < numStripes/2 {
		t.Fatalf("sequential OIDs hit only %d/%d stripes", len(seen), numStripes)
	}
}

func TestLoadRejectsCorruptAttributes(t *testing.T) {
	schema := testSchema(t)
	st := NewStore(schema)
	mustCreate(t, st, "Cell", map[string]Value{"name": S("x"), "rev": I(1)})
	orig, err := st.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Kind mismatch: rev declared int, snapshot says string.
	bad := strings.Replace(string(orig), `"rev":{"kind":1`, `"rev":{"kind":0`, 1)
	if bad == string(orig) {
		bad = strings.Replace(string(orig), `"kind":1`, `"kind":0`, 1)
	}
	if _, err := DecodeSnapshot([]byte(bad), schema); err == nil {
		t.Fatal("kind-mismatched snapshot accepted")
	}
	// Missing required attribute: delete "name" from the object entirely
	// (renaming it would trip the unknown-attribute check instead).
	var snap map[string]any
	if err := json.Unmarshal(orig, &snap); err != nil {
		t.Fatal(err)
	}
	attrs := snap["objects"].([]any)[0].(map[string]any)["attrs"].(map[string]any)
	delete(attrs, "name")
	missing, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(missing, schema); err == nil {
		t.Fatal("snapshot missing a required attribute accepted")
	}
}
