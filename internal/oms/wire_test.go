package oms

import (
	"testing"
)

// Wire robustness: DecodeChanges is the entry point for bytes that
// crossed a disk (delta payloads) or a network (replication frames).
// Truncated, corrupt or short input must produce an error — never a
// panic, and never a change sequence that half-applies a commit group.

// wirePayload builds a valid two-group payload: a create+set+link batch
// group and a single-op group.
func wirePayload(t testing.TB) []byte {
	t.Helper()
	schema := feedSchema(t)
	st := NewStore(schema)
	cell, err := st.Create("Cell", map[string]Value{"name": S("alu"), "data": Bytes([]byte{1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	v := b.CreateOwned("Version", map[string]Value{"num": I(1)})
	b.Link("hasVersion", cell, v)
	if _, err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(cell, "rev", I(9)); err != nil {
		t.Fatal(err)
	}
	recs, ok := st.Changes(0)
	if !ok || len(recs) == 0 {
		t.Fatal("no changes collected")
	}
	payload, err := EncodeChanges(recs)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestDecodeChangesRobustness(t *testing.T) {
	valid := wirePayload(t)
	schema := feedSchema(t)

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"garbage", []byte("\x00\xFF\x17garbage")},
		{"not-json", []byte("hello world")},
		{"wrong-shape-object", []byte(`{"lsn":1}`)},
		{"wrong-shape-scalar", []byte(`42`)},
		{"truncated-half", valid[:len(valid)/2]},
		{"truncated-tail", valid[:len(valid)-3]},
		{"corrupt-kind-type", []byte(`[{"lsn":1,"group":1,"kind":"create"}]`)},
		{"corrupt-oid-type", []byte(`[{"lsn":1,"group":1,"kind":0,"oid":"x"}]`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeChanges(tc.payload); err == nil {
				t.Fatalf("DecodeChanges accepted %s input", tc.name)
			}
		})
	}

	// Structurally valid JSON with semantic nonsense decodes, but neither
	// replay path may panic or accept it silently.
	semantic := [][]byte{
		[]byte(`[{"lsn":1,"group":1,"kind":99,"oid":5,"class":"Cell"}]`),                             // unknown kind
		[]byte(`[{"lsn":1,"group":1,"kind":0,"oid":5,"class":"NoSuchClass"}]`),                       // unknown class
		[]byte(`[{"lsn":1,"group":1,"kind":1,"oid":5,"attr":"rev"}]`),                                // set on absent object
		[]byte(`[{"lsn":1,"group":1,"kind":2,"rel":"nope","from":1,"to":2}]`),                        // unknown rel
		[]byte(`[{"lsn":1,"group":1,"kind":4,"oid":77,"class":"Cell"}]`),                             // delete absent
		[]byte(`[{"lsn":1,"group":1,"kind":0,"oid":1,"class":"Cell","attrs":{"bogus":{"kind":0}}}]`), // unknown attr
	}
	for _, payload := range semantic {
		recs, err := DecodeChanges(payload)
		if err != nil {
			continue // also acceptable
		}
		if err := NewStore(schema).ReplayChanges(recs); err == nil {
			t.Fatalf("ReplayChanges accepted %s", payload)
		}
		if err := NewStore(schema).ApplyReplicated(recs); err == nil {
			t.Fatalf("ApplyReplicated accepted %s", payload)
		}
	}
}

// TestApplyReplicatedGapDetection: a suffix that does not attach to the
// store's watermark is rejected whole — ErrFeedGap, nothing applied.
func TestApplyReplicatedGapDetection(t *testing.T) {
	schema := feedSchema(t)
	primary := NewStore(schema)
	if _, err := primary.Create("Cell", map[string]Value{"name": S("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Create("Cell", map[string]Value{"name": S("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Create("Cell", map[string]Value{"name": S("c")}); err != nil {
		t.Fatal(err)
	}
	recs, ok := primary.Changes(0)
	if !ok {
		t.Fatal("changes incomplete")
	}

	follower := NewStore(schema)
	// Skipping the first record must be detected before anything applies.
	if err := follower.ApplyReplicated(recs[1:]); err == nil {
		t.Fatal("gap accepted")
	}
	if follower.Count("") != 0 || follower.FeedLSN() != 0 {
		t.Fatal("gapped suffix partially applied")
	}
	// A non-contiguous run inside the suffix is rejected too.
	holed := []Change{recs[0], recs[2]}
	if err := follower.ApplyReplicated(holed); err == nil {
		t.Fatal("holed suffix accepted")
	}
	if follower.Count("") != 0 {
		t.Fatal("holed suffix partially applied")
	}
	// The correct suffix applies and mirrors the primary's LSNs.
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	if follower.FeedLSN() != primary.FeedLSN() {
		t.Fatalf("follower at %d, primary at %d", follower.FeedLSN(), primary.FeedLSN())
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("fingerprint mismatch")
	}
}

// TestResetFromSnapshot: the whole-store swap installs the snapshot
// state, rebases the feed, and rejects corrupt payloads untouched.
func TestResetFromSnapshot(t *testing.T) {
	schema := feedSchema(t)
	primary := NewStore(schema)
	cell, err := primary.Create("Cell", map[string]Value{"name": S("alu")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := primary.Set(cell, "rev", I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := primary.Snapshot()
	data, err := snap.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	follower := NewStore(schema)
	if _, err := follower.Create("Cell", map[string]Value{"name": S("stale")}); err != nil {
		t.Fatal(err)
	}
	if err := follower.ResetFromSnapshot(data, snap.LSN()); err != nil {
		t.Fatal(err)
	}
	if follower.FeedLSN() != snap.LSN() {
		t.Fatalf("feed at %d, want %d", follower.FeedLSN(), snap.LSN())
	}
	if got, want := fingerprint(t, follower), fingerprint(t, primary); got != want {
		t.Fatal("fingerprint mismatch after reset")
	}
	// The pre-reset object is gone, and the follower can tail from here.
	if n := len(follower.FindByAttr("Cell", "name", S("stale"))); n != 0 {
		t.Fatal("stale object survived reset")
	}
	if err := primary.Set(cell, "rev", I(99)); err != nil {
		t.Fatal(err)
	}
	tail, ok := primary.Changes(snap.LSN())
	if !ok {
		t.Fatal("tail incomplete")
	}
	if err := follower.ApplyReplicated(tail); err != nil {
		t.Fatal(err)
	}
	if got := follower.GetInt(cell, "rev"); got != 99 {
		t.Fatalf("tail not applied: rev=%d", got)
	}

	// Corrupt payloads leave the store untouched.
	before := fingerprint(t, follower)
	if err := follower.ResetFromSnapshot([]byte("{torn"), 7); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if fingerprint(t, follower) != before {
		t.Fatal("failed reset mutated the store")
	}
}

// FuzzDecodeChanges: decode arbitrary bytes; whatever decodes must
// replay (or be rejected) without panicking on a fresh store.
func FuzzDecodeChanges(f *testing.F) {
	valid := wirePayload(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"lsn":1,"group":1,"kind":0,"oid":1,"class":"Cell"}]`))
	f.Add([]byte(`[{"lsn":1,"group":1,"kind":99}]`))
	f.Add([]byte(`{"lsn":1}`))
	f.Add([]byte("\xFF\x00 not json"))
	schema := feedSchema(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeChanges(data)
		if err != nil {
			return
		}
		_ = NewStore(schema).ReplayChanges(recs)
		_ = NewStore(schema).ApplyReplicated(recs)
	})
}
