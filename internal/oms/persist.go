package oms

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// snapshot is the on-disk form of a Store. It intentionally contains only
// plain data so the JSON round-trip is exact.
type snapshot struct {
	NextOID OID            `json:"next_oid"`
	Objects []snapshotObj  `json:"objects"`
	Links   []snapshotLink `json:"links"`
}

type snapshotObj struct {
	OID   OID                  `json:"oid"`
	Class string               `json:"class"`
	Attrs map[string]snapValue `json:"attrs"`
}

type snapValue struct {
	Kind Kind   `json:"kind"`
	Str  string `json:"str,omitempty"`
	Int  int64  `json:"int,omitempty"`
	Bool bool   `json:"bool,omitempty"`
	Blob []byte `json:"blob,omitempty"`
}

type snapshotLink struct {
	Rel  string `json:"rel"`
	From OID    `json:"from"`
	To   OID    `json:"to"`
}

// DecodeSnapshot rebuilds a store from an encoded snapshot payload (the
// bytes Snapshot.EncodeJSON produced), regardless of which
// storage backend held them. The payload is validated against the schema;
// unknown classes, attributes or relationships fail the decode.
func DecodeSnapshot(data []byte, schema *Schema) (*Store, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	st := NewStore(schema)
	st.nextOID = snap.NextOID
	for _, so := range snap.Objects {
		cls := schema.class(so.Class)
		if cls == nil {
			return nil, fmt.Errorf("decode snapshot: unknown class %q", so.Class)
		}
		obj := newObject(so.OID, so.Class)
		for name, sv := range so.Attrs {
			def, ok := cls.attr(name)
			if !ok {
				return nil, fmt.Errorf("decode snapshot: class %q has no attribute %q", so.Class, name)
			}
			if !kindCompatible(def.Kind, sv.Kind) {
				return nil, fmt.Errorf("decode snapshot: attribute %s.%s wants %s, got %s", so.Class, name, def.Kind, sv.Kind)
			}
			obj.attrs[name] = Value{Kind: sv.Kind, Str: sv.Str, Int: sv.Int, Bool: sv.Bool, Blob: sv.Blob}
		}
		for _, def := range cls.Attrs {
			if def.Required {
				if _, ok := so.Attrs[def.Name]; !ok {
					return nil, fmt.Errorf("decode snapshot: class %q requires attribute %q", so.Class, def.Name)
				}
			}
		}
		s := st.stripeOf(so.OID)
		s.objects[so.OID] = obj
		s.addClass(so.Class, so.OID)
		if so.OID >= st.nextOID {
			st.nextOID = so.OID + 1
		}
	}
	for _, l := range snap.Links {
		if schema.rel(l.Rel) == nil {
			return nil, fmt.Errorf("decode snapshot: unknown relationship %q", l.Rel)
		}
		if err := st.Link(l.Rel, l.From, l.To); err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
	}
	return st, nil
}

// --- file-system staging ------------------------------------------------
//
// JCF encapsulation copies design data between the database and the UNIX
// file system ("the required data are copied to and from the database via
// the UNIX file system", section 2.1). CopyIn/CopyOut are that interface:
// an encapsulated tool only ever sees plain files.

// CopyIn reads the file at srcPath and stores its content as the named blob
// attribute of object oid. It returns the number of bytes copied. The
// freshly-read bytes are installed directly (setOwned) — one copy from the
// file system into the database, not two.
func (st *Store) CopyIn(oid OID, attr, srcPath string) (int64, error) {
	data, err := os.ReadFile(srcPath)
	if err != nil {
		return 0, fmt.Errorf("oms: copy-in: %w", err)
	}
	v := Value{Kind: KindBlob, Blob: data}
	if st.shouldSpill(v) {
		ref, unpin, err := st.spill(v)
		if err != nil {
			return 0, err
		}
		defer unpin()
		v = ref
	}
	if err := st.setOwned(oid, attr, v); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// CopyOut writes the named blob attribute of object oid to dstPath, creating
// parent directories as needed. It returns the number of bytes copied.
// Note that even read-only tool access requires a CopyOut — the cost the
// paper complains about in section 3.6.
func (st *Store) CopyOut(oid OID, attr, dstPath string) (int64, error) {
	v, ok, err := st.Get(oid, attr)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("oms: copy-out: object %d has no attribute %q", oid, attr)
	}
	data, err := st.resolveBlob(v)
	if err != nil {
		return 0, fmt.Errorf("oms: copy-out: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(dstPath), 0o755); err != nil {
		return 0, fmt.Errorf("oms: copy-out: %w", err)
	}
	if err := os.WriteFile(dstPath, data, 0o644); err != nil {
		return 0, fmt.Errorf("oms: copy-out: %w", err)
	}
	return int64(len(data)), nil
}
