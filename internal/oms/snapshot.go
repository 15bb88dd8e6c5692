package oms

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Consistent-cut snapshots.
//
// A Snapshot is a point-in-time copy of the whole store taken under every
// stripe's read lock at once — the one moment all 32 stripes plus the OID
// allocator agree. Only object *headers* are copied inside that window:
// the class name, the attribute map and the flattened outgoing links.
// Blob bytes are shared with the live store, O(1) per blob, which is what
// keeps the cut brief on a blob-heavy database. Sharing is safe because
// blobs are immutable once stored: Set replaces the whole Value with a
// private clone (copy-on-write) and Get hands out clones, so the bytes a
// snapshot references can never change underneath it.
//
// Encoding and writing the snapshot happen entirely outside the locks, so
// concurrent designers stall only for the header copy — never for the
// JSON encode or the disk write.

// snapObjHdr is one captured object header. attrs shares Value contents
// (including blob backing arrays) with the live store; links is a
// flattened, unsorted copy of the outgoing link sets.
type snapObjHdr struct {
	oid   OID
	class string
	attrs map[string]Value
	links map[string][]OID
}

// Snapshot is an immutable consistent cut of a Store. It is safe to
// encode from any goroutine while the originating store keeps mutating.
type Snapshot struct {
	nextOID OID
	lsn     uint64       // change-feed position of the cut (see LSN)
	objs    []snapObjHdr // sorted by OID
}

// Snapshot captures a consistent cut of the store. Every stripe is
// read-locked simultaneously (so no cross-stripe mutation can tear the
// cut) and nextOID is read *inside* that window: an object inserted
// before the cut was necessarily allocated before it, so every captured
// OID is < NextOID — Load never needs to patch the allocator up.
//
// allocMu is taken while the stripe locks are held; Create releases
// allocMu before touching any stripe, so the stripes→allocMu order is
// acyclic.
func (st *Store) Snapshot() *Snapshot {
	// Time the capture hold — how long every stripe stays read-locked —
	// not the sort below, which runs after the cut is released.
	hold := obs.Now()
	st.rlockAll()
	st.allocMu.Lock()
	sn := &Snapshot{nextOID: st.nextOID}
	st.allocMu.Unlock()
	// The feed position is read inside the cut too: every mutation
	// publishes while holding its stripe write locks, which the cut
	// excludes, so exactly the changes with LSN <= sn.lsn are visible in
	// the captured state — the anchor differential saves replay from.
	sn.lsn = st.feed.lsn()
	for i := range st.stripes {
		for _, obj := range st.stripes[i].objects {
			h := snapObjHdr{
				oid:   obj.oid,
				class: obj.class,
				attrs: make(map[string]Value, len(obj.attrs)),
			}
			for name, v := range obj.attrs {
				h.attrs[name] = v // blob bytes shared; immutable once stored
			}
			if len(obj.links) > 0 {
				h.links = make(map[string][]OID, len(obj.links))
				for rel, targets := range obj.links {
					ts := make([]OID, 0, len(targets))
					for to := range targets {
						ts = append(ts, to)
					}
					h.links[rel] = ts
				}
			}
			sn.objs = append(sn.objs, h)
		}
	}
	st.runlockAll()
	st.metrics.snapshotHold.Since(hold)
	// Deterministic order is established outside the cut — sorting is not
	// the writers' problem.
	sort.Slice(sn.objs, func(i, j int) bool { return sn.objs[i].oid < sn.objs[j].oid })
	return sn
}

// NextOID returns the allocator position captured by the cut.
func (sn *Snapshot) NextOID() OID { return sn.nextOID }

// LSN returns the change-feed position of the cut: every change with
// LSN <= this value is reflected in the snapshot, none after. It is the
// `since` anchor for Store.Changes/Store.Watch when building
// differential persistence on top of a base snapshot.
func (sn *Snapshot) LSN() uint64 { return sn.lsn }

// Objects returns the number of objects in the cut.
func (sn *Snapshot) Objects() int { return len(sn.objs) }

// EncodeJSON renders the snapshot in the Store wire format (the same
// format Load accepts). Deterministic: objects are ordered by OID,
// relationship names and targets are sorted, and JSON object keys are
// marshalled in sorted order.
func (sn *Snapshot) EncodeJSON() ([]byte, error) {
	snap := snapshot{NextOID: sn.nextOID}
	for _, h := range sn.objs {
		so := snapshotObj{OID: h.oid, Class: h.class, Attrs: make(map[string]snapValue, len(h.attrs))}
		for name, v := range h.attrs {
			so.Attrs[name] = snapValue{Kind: v.Kind, Str: v.Str, Int: v.Int, Bool: v.Bool, Blob: v.Blob}
		}
		snap.Objects = append(snap.Objects, so)
		rels := make([]string, 0, len(h.links))
		for rel := range h.links {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		for _, rel := range rels {
			ts := append([]OID(nil), h.links[rel]...)
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			for _, to := range ts {
				snap.Links = append(snap.Links, snapshotLink{Rel: rel, From: h.oid, To: to})
			}
		}
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return nil, fmt.Errorf("oms: encode snapshot: %w", err)
	}
	return data, nil
}
