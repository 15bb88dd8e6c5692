package oms

import (
	"fmt"

	"repro/internal/oms/blobstore"
)

// Content-addressed blob spilling (ISSUE 9). With a blobstore attached,
// blob values at or above the spill threshold are stored once in the CAS
// during Apply's lock-free staging phase (or CopyIn, for the single-op
// path) and only a ~40-byte KindBlobRef rides through stripes, snapshots,
// deltas, the change feed and replication. Reads resolve the ref back to
// verified bytes transparently in CopyOut/BlobBytes.

// AttachBlobs wires a content-addressed blob store into the store and
// sets the spill threshold in bytes (0 disables spilling — useful on
// replicas, which only resolve refs). Wire-up only: call once before the
// store is shared.
func (st *Store) AttachBlobs(bs *blobstore.Store, spillAt int) {
	st.blobs = bs
	st.spillAt = spillAt
}

// Blobs returns the attached blob store, or nil.
func (st *Store) Blobs() *blobstore.Store { return st.blobs }

// shouldSpill reports whether v is a blob large enough to live in the CAS.
func (st *Store) shouldSpill(v Value) bool {
	return v.Kind == KindBlob && st.blobs != nil && st.spillAt > 0 && len(v.Blob) >= st.spillAt
}

// spill stores v's bytes in the CAS, pinned against Sweep from before
// the backend write until unpin is called (after the ref has committed —
// or failed to commit — to metadata), and returns the reference value.
// The pin-before-put ordering is the Sweep contract: there is never an
// instant where the blob is durable but unpinned and unreachable.
func (st *Store) spill(v Value) (ref Value, unpin func(), err error) {
	r, unpin, err := st.blobs.PutBytesPinned(v.Blob)
	if err != nil {
		return Value{}, nil, fmt.Errorf("oms: spilling %d-byte blob: %w", len(v.Blob), err)
	}
	return BlobRef(r), unpin, nil
}

// resolveBlob returns the bytes behind a blob-valued attribute: inline
// bytes as-is, references through the attached blobstore (digest-verified
// there, lazily fetched on a replica).
func (st *Store) resolveBlob(v Value) ([]byte, error) {
	switch v.Kind {
	case KindBlob:
		return v.Blob, nil
	case KindBlobRef:
		if st.blobs == nil {
			return nil, fmt.Errorf("oms: blob ref %s but no blob store attached", v)
		}
		r, err := v.AsBlobRef()
		if err != nil {
			return nil, err
		}
		data, err := st.blobs.Get(r)
		if err != nil {
			return nil, err
		}
		st.statBlobOut.Add(r.Size)
		return data, nil
	default:
		return nil, fmt.Errorf("oms: attribute holds %s, not blob data", v.Kind)
	}
}

// BlobBytes returns the design-data bytes of a blob attribute, resolving
// content-addressed references. The returned slice is private to the
// caller.
func (st *Store) BlobBytes(oid OID, attr string) ([]byte, error) {
	v, ok, err := st.Get(oid, attr)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("oms: object %d has no %q data", oid, attr)
	}
	return st.resolveBlob(v)
}

// ForEachBlobRef visits every KindBlobRef attribute value in the store —
// the live set of the blobstore GC sweep. Runs under the stripes'
// read locks; fn must not call back into the store.
func (st *Store) ForEachBlobRef(fn func(oid OID, attr string, r blobstore.Ref)) {
	st.forEachStripeRLocked(func(s *stripe) {
		for oid, obj := range s.objects {
			for name, v := range obj.attrs {
				if v.Kind != KindBlobRef {
					continue
				}
				if r, err := v.AsBlobRef(); err == nil {
					fn(oid, name, r)
				}
			}
		}
	})
}

// noteBlobIn accounts one stored blob-carrying value: statBlobIn counts
// logical design bytes either way; statBlobPhys only the bytes written
// inline (the blobstore counts its own post-dedup writes).
func (st *Store) noteBlobIn(v Value) {
	switch v.Kind {
	case KindBlob:
		st.statBlobIn.Add(int64(len(v.Blob)))
		st.statBlobPhys.Add(int64(len(v.Blob)))
	case KindBlobRef:
		st.statBlobIn.Add(v.Int)
	}
}
