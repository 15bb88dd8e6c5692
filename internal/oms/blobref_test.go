package oms

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
)

// blobStore returns a store with a CAS attached, spilling at 64 bytes.
func blobStore(t *testing.T) (*Store, *blobstore.Store) {
	t.Helper()
	be, err := backend.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blobstore.New(be)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(testSchema(t))
	st.AttachBlobs(bs, 64)
	return st, bs
}

func bigBlob() []byte  { return bytes.Repeat([]byte("macro-cell "), 100) }
func tinyBlob() []byte { return []byte("tiny") }

// TestSpillOnCopyIn: the single-op CopyIn path spills at-threshold data
// to the CAS, stores only a ref, and resolves it back on CopyOut.
func TestSpillOnCopyIn(t *testing.T) {
	st, bs := blobStore(t)
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	src := filepath.Join(t.TempDir(), "alu.lay")
	data := bigBlob()
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := st.CopyIn(cell, "data", src)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("CopyIn reported %d bytes, want %d", n, len(data))
	}
	v, ok, err := st.Get(cell, "data")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if v.Kind != KindBlobRef {
		t.Fatalf("stored kind = %s, want blobref", v.Kind)
	}
	ref, err := v.AsBlobRef()
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Has(ref) || ref.Size != int64(len(data)) {
		t.Fatalf("CAS does not hold the spilled blob (%v, size %d)", bs.Has(ref), ref.Size)
	}
	dst := filepath.Join(t.TempDir(), "out.lay")
	if _, err := st.CopyOut(cell, "data", dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("CopyOut bytes differ from CopyIn bytes")
	}
	if got, err := st.BlobBytes(cell, "data"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("BlobBytes: %v", err)
	}
}

// TestSpillThreshold: sub-threshold blobs stay inline.
func TestSpillThreshold(t *testing.T) {
	st, bs := blobStore(t)
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("inv")})
	b := NewBatch()
	b.CopyInBytes(cell, "data", tinyBlob())
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	v, _, _ := st.Get(cell, "data")
	if v.Kind != KindBlob {
		t.Fatalf("tiny blob spilled: kind = %s", v.Kind)
	}
	if bs.Count() != 0 {
		t.Fatalf("CAS holds %d blobs for inline data", bs.Count())
	}
}

// TestSpillInBatch: Apply's staging phase spills CopyInBytes ops; two
// identical payloads in one batch dedup to one physical blob.
func TestSpillInBatch(t *testing.T) {
	st, bs := blobStore(t)
	a := mustCreate(t, st, "Cell", map[string]Value{"name": S("a")})
	c := mustCreate(t, st, "Cell", map[string]Value{"name": S("b")})
	data := bigBlob()
	b := NewBatch()
	b.CopyInBytes(a, "data", data)
	b.CopyInBytes(c, "data", data)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	for _, oid := range []OID{a, c} {
		got, err := st.BlobBytes(oid, "data")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("object %d: %v", oid, err)
		}
	}
	if bs.Count() != 1 {
		t.Fatalf("CAS holds %d blobs, want 1 (dedup)", bs.Count())
	}
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	m := reg.Snapshot()
	if got := m["oms_blob_logical_in_bytes_total"]; got != 2*int64(len(data)) {
		t.Fatalf("logical in = %v, want %d", got, 2*len(data))
	}
	// Physical ingest is the inline bytes plus the CAS's post-dedup writes.
	phys := m["oms_blob_inline_bytes_total"].(int64) + m["blob_physical_bytes_total"].(int64)
	if phys != int64(len(data)) {
		t.Fatalf("physical in = %d, want %d (one physical copy)", phys, len(data))
	}
	if got := m["blob_dedup_hits_total"]; got != int64(1) {
		t.Fatalf("dedup hits = %v, want 1", got)
	}
}

// TestPlainSetNeverSpills: Set with a KindBlob value is not a design-data
// op and must not detour through the CAS, whatever its size.
func TestPlainSetNeverSpills(t *testing.T) {
	st, bs := blobStore(t)
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("raw")})
	if err := st.Set(cell, "data", Bytes(bigBlob())); err != nil {
		t.Fatal(err)
	}
	v, _, _ := st.Get(cell, "data")
	if v.Kind != KindBlob || bs.Count() != 0 {
		t.Fatalf("plain Set spilled: kind=%s cas=%d", v.Kind, bs.Count())
	}
}

// TestSnapshotCarriesRefs: a snapshot of a store with spilled blobs
// encodes the ~40-byte refs, not the design bytes, and decodes against a
// store that re-attaches the same CAS.
func TestSnapshotCarriesRefs(t *testing.T) {
	st, bs := blobStore(t)
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	data := bigBlob()
	b := NewBatch()
	b.CopyInBytes(cell, "data", data)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	enc, err := st.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 4096 {
		t.Fatalf("snapshot is %d bytes — it shipped the blob, not the ref", len(enc))
	}
	st2, err := DecodeSnapshot(enc, st.schema)
	if err != nil {
		t.Fatal(err)
	}
	st2.AttachBlobs(bs, 64)
	got, err := st2.BlobBytes(cell, "data")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decoded store cannot resolve ref: %v", err)
	}
}

// TestFeedCarriesRefs: the change feed (and so every replication frame
// and differential delta) carries the ref; replay into a fresh store
// accepts a blobref value for a KindBlob attribute.
func TestFeedCarriesRefs(t *testing.T) {
	st, bs := blobStore(t)
	sub, err := st.Watch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	data := bigBlob()
	b := NewBatch()
	b.CopyInBytes(cell, "data", data)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	var recs []Change
	for len(recs) < 2 {
		recs = append(recs, <-sub.C()...)
	}
	enc, err := EncodeChanges(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 4096 {
		t.Fatalf("change frame is %d bytes — it shipped the blob, not the ref", len(enc))
	}
	dec, err := DecodeChanges(enc)
	if err != nil {
		t.Fatal(err)
	}
	follower := NewStore(testSchema(t))
	follower.AttachBlobs(bs, 0)
	if err := follower.ApplyReplicated(dec); err != nil {
		t.Fatal(err)
	}
	got, err := follower.BlobBytes(cell, "data")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("follower cannot resolve replayed ref: %v", err)
	}
}

// TestForEachBlobRef: the GC live-set walk sees exactly the spilled refs.
func TestForEachBlobRef(t *testing.T) {
	st, _ := blobStore(t)
	cell := mustCreate(t, st, "Cell", map[string]Value{"name": S("alu")})
	b := NewBatch()
	b.CopyInBytes(cell, "data", bigBlob())
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	var n int
	st.ForEachBlobRef(func(oid OID, attr string, r blobstore.Ref) {
		n++
		if oid != cell || attr != "data" || r.Size != int64(len(bigBlob())) {
			t.Fatalf("unexpected ref: oid=%d attr=%s size=%d", oid, attr, r.Size)
		}
	})
	if n != 1 {
		t.Fatalf("walked %d refs, want 1", n)
	}
}

// TestBlobRefValueBasics: Equal, String and AsBlobRef on ref values.
func TestBlobRefValueBasics(t *testing.T) {
	r := blobstore.RefOf([]byte("payload"))
	v := BlobRef(r)
	w := BlobRef(r)
	if !v.Equal(w) {
		t.Fatal("identical refs not Equal")
	}
	w.Int++
	if v.Equal(w) {
		t.Fatal("size-differing refs Equal")
	}
	back, err := v.AsBlobRef()
	if err != nil || back != r {
		t.Fatalf("AsBlobRef round-trip: %v", err)
	}
	if _, err := S("not-a-ref").AsBlobRef(); err == nil {
		t.Fatal("AsBlobRef accepted a string value")
	}
	if KindBlobRef.String() != "blobref" {
		t.Fatalf("Kind.String = %q", KindBlobRef.String())
	}
}
