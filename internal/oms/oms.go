// Package oms implements a small object-oriented database kernel modelled
// after the OMS database used by the JESSI-COMMON-Framework (JCF 3.0).
//
// OMS stores typed objects. Every object belongs to a class declared in a
// Schema; a class defines the attributes an object may carry and the binary
// relationship types it may participate in. The kernel provides:
//
//   - schema definition (classes, attributes, relationship types with
//     cardinality constraints),
//   - object creation/deletion and attribute access,
//   - binary relationships between objects with cardinality checking,
//   - atomic grouped mutation (Batch / Store.Apply, see batch.go),
//   - a sequenced change feed of every committed mutation (feed.go),
//   - consistent-cut snapshots encoded as JSON (snapshot.go), and
//   - blob storage with file-system staging (CopyIn/CopyOut), mirroring the
//     JCF behaviour that encapsulated tools never touch database internals
//     but exchange design data through the UNIX file system.
//
// The paper (section 2.1) stresses two properties this package reproduces
// faithfully: metadata and design data live in one common database, and
// "direct access to the internal structure of the stored data by an
// appropriate interface is not possible" — callers get copies, never
// internal references.
//
// # Concurrency
//
// The store is the shared kernel that many concurrent designers hit at
// once (section 3.1), so it is lock-striped rather than globally locked:
// objects are sharded across numStripes stripes keyed by OID, each with
// its own RWMutex, so designers touching disjoint objects never contend.
// Secondary indexes (per class and per relationship type) let All /
// Count / FindByAttr / Related visit only relevant objects instead of
// scanning the whole object map.
//
// The secondary indexes live inside the stripes, keyed by the same OID
// hash, so index maintenance happens under the stripe lock the mutation
// already holds — no extra global lock on the write path.
//
// Internal lock ordering (never acquire in any other order):
//
//  1. stripe mutexes, ascending stripe index (lockPair / lockAll)
//  2. feedMu (the change feed ring, see feed.go) — leaf: every
//     committed mutation publishes its sequenced change records
//     while still holding its stripe write locks, which is what makes
//     the feed's LSN order a valid serialization of store history
//
// allocMu (OID allocation) and the stat counters (atomics) stand alone,
// with one exception: Snapshot reads nextOID under allocMu while holding
// every stripe read lock (the consistent cut). That nests stripes →
// allocMu; Create never holds allocMu and a stripe lock at the same
// time, so the order stays acyclic.
//
// Blob values are immutable once stored: Set installs a private clone
// (copy-on-write) and Get returns clones, so a Snapshot may share blob
// backing arrays with the live store without copying them.
package oms

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/oms/blobstore"
)

// OID identifies an object inside one Store. OIDs are never reused.
type OID int64

// InvalidOID is the zero OID; no object ever has it.
const InvalidOID OID = 0

// Kind enumerates the attribute value types OMS supports.
type Kind int

// Attribute kinds.
const (
	KindString Kind = iota
	KindInt
	KindBool
	KindBlob    // arbitrary bytes, used for staged design data
	KindBlobRef // content-addressed reference to a blob (hex digest + size)
)

// String returns the OTO-D style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindBlob:
		return "blob"
	case KindBlobRef:
		return "blobref"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a single attribute value. Exactly one field is meaningful,
// selected by Kind — except KindBlobRef, which reuses Str for the hex
// sha256 digest and Int for the blob size, so a reference costs nothing
// beyond the struct every value already pays, and every existing
// snapshot/feed encoding carries it unchanged.
type Value struct {
	Kind Kind
	Str  string
	Int  int64
	Bool bool
	Blob []byte
}

// S returns a string Value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// I returns an int Value.
func I(i int64) Value { return Value{Kind: KindInt, Int: i} }

// B returns a bool Value.
func B(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Bytes returns a blob Value holding a private copy of p.
func Bytes(p []byte) Value {
	cp := make([]byte, len(p))
	copy(cp, p)
	return Value{Kind: KindBlob, Blob: cp}
}

// BlobRef returns a content-addressed reference Value for a blob in the
// attached blobstore. A ref may be stored wherever the schema declares
// KindBlob — see kindCompatible.
func BlobRef(r blobstore.Ref) Value {
	return Value{Kind: KindBlobRef, Str: r.Hex(), Int: r.Size}
}

// AsBlobRef decodes a KindBlobRef value back into a blobstore.Ref.
func (v Value) AsBlobRef() (blobstore.Ref, error) {
	if v.Kind != KindBlobRef {
		return blobstore.Ref{}, fmt.Errorf("oms: %s value is not a blob ref", v.Kind)
	}
	return blobstore.ParseHexRef(v.Str, v.Int)
}

// kindCompatible reports whether a value of kind got may be stored in an
// attribute declared as want: an exact match, or a content-addressed
// reference standing in for a declared blob. The schema never declares
// KindBlobRef — it is a storage representation of blob data, not a
// distinct modeling type.
func kindCompatible(want, got Kind) bool {
	return want == got || (want == KindBlob && got == KindBlobRef)
}

// clone returns a deep copy of v so callers can never alias store internals.
func (v Value) clone() Value {
	if v.Kind == KindBlob {
		return Bytes(v.Blob)
	}
	return v
}

// Equal reports whether two values have the same kind and content.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == w.Str
	case KindInt:
		return v.Int == w.Int
	case KindBool:
		return v.Bool == w.Bool
	case KindBlob:
		if len(v.Blob) != len(w.Blob) {
			return false
		}
		for i := range v.Blob {
			if v.Blob[i] != w.Blob[i] {
				return false
			}
		}
		return true
	case KindBlobRef:
		return v.Str == w.Str && v.Int == w.Int
	}
	return false
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case KindBlob:
		return fmt.Sprintf("blob[%d]", len(v.Blob))
	case KindBlobRef:
		digest := v.Str
		if len(digest) > 12 {
			digest = digest[:12]
		}
		return fmt.Sprintf("blobref[%d @%s]", v.Int, digest)
	}
	return "?"
}

// AttrDef declares one attribute of a class.
type AttrDef struct {
	Name     string
	Kind     Kind
	Required bool
}

// Cardinality constrains how many links of a relationship type an object may
// have on one side.
type Cardinality int

// Cardinalities. One means at most a single link on that side; Many is
// unbounded.
const (
	One Cardinality = iota
	Many
)

// String returns "1" or "N".
func (c Cardinality) String() string {
	if c == One {
		return "1"
	}
	return "N"
}

// RelDef declares a directed binary relationship type between two classes.
// From/To name classes; FromCard constrains how many links a single target
// object may receive, ToCard how many links a single source object may hold.
// (So ToCard==One means "each From object points to at most one To object",
// matching the usual crow's-foot reading From —— To.)
type RelDef struct {
	Name     string
	From, To string // class names
	FromCard Cardinality
	ToCard   Cardinality
}

// Class declares an object type.
type Class struct {
	Name  string
	Attrs []AttrDef
}

func (c *Class) attr(name string) (AttrDef, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return AttrDef{}, false
}

// Schema is the set of classes and relationship types a Store enforces.
// A Schema is immutable once handed to NewStore.
type Schema struct {
	classes map[string]*Class
	rels    map[string]*RelDef
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{classes: map[string]*Class{}, rels: map[string]*RelDef{}}
}

// AddClass registers a class. It returns an error if the name is already
// taken or an attribute is duplicated.
func (s *Schema) AddClass(name string, attrs ...AttrDef) error {
	if name == "" {
		return fmt.Errorf("oms: empty class name")
	}
	if _, dup := s.classes[name]; dup {
		return fmt.Errorf("oms: duplicate class %q", name)
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if a.Name == "" {
			return fmt.Errorf("oms: class %q has attribute with empty name", name)
		}
		if seen[a.Name] {
			return fmt.Errorf("oms: class %q duplicates attribute %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	s.classes[name] = &Class{Name: name, Attrs: append([]AttrDef(nil), attrs...)}
	return nil
}

// AddRel registers a relationship type. Both endpoint classes must exist.
func (s *Schema) AddRel(def RelDef) error {
	if def.Name == "" {
		return fmt.Errorf("oms: empty relationship name")
	}
	if _, dup := s.rels[def.Name]; dup {
		return fmt.Errorf("oms: duplicate relationship %q", def.Name)
	}
	if _, ok := s.classes[def.From]; !ok {
		return fmt.Errorf("oms: relationship %q: unknown class %q", def.Name, def.From)
	}
	if _, ok := s.classes[def.To]; !ok {
		return fmt.Errorf("oms: relationship %q: unknown class %q", def.Name, def.To)
	}
	cp := def
	s.rels[def.Name] = &cp
	return nil
}

// class returns the live class declaration for internal schema checks.
func (s *Schema) class(name string) *Class { return s.classes[name] }

// rel returns the live relationship declaration for internal checks.
func (s *Schema) rel(name string) *RelDef { return s.rels[name] }

// Class returns a copy of the class declaration, or nil. Callers get a
// private copy — mutating the result never changes the schema.
func (s *Schema) Class(name string) *Class {
	c, ok := s.classes[name]
	if !ok {
		return nil
	}
	return &Class{Name: c.Name, Attrs: append([]AttrDef(nil), c.Attrs...)}
}

// Rel returns a copy of the relationship declaration, or nil.
func (s *Schema) Rel(name string) *RelDef {
	r, ok := s.rels[name]
	if !ok {
		return nil
	}
	cp := *r
	return &cp
}

// Rels returns all relationship names, sorted.
func (s *Schema) Rels() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// object is the internal representation; never escapes the package.
type object struct {
	oid   OID
	class string
	attrs map[string]Value
	// links[relName] is the set of OIDs this object points to (as From side).
	links map[string]map[OID]bool
	// backlinks[relName] is the set of OIDs pointing at this object.
	backlinks map[string]map[OID]bool
}

func newObject(oid OID, class string) *object {
	return &object{
		oid:       oid,
		class:     class,
		attrs:     map[string]Value{},
		links:     map[string]map[OID]bool{},
		backlinks: map[string]map[OID]bool{},
	}
}

// stripeShift sets the shard count of the object map: numStripes = 2^5 =
// 32 keeps far more stripes than the hardware has cores, which is what
// makes disjoint-object traffic contention-free. The stripe hash derives
// from stripeShift so the two can never drift apart.
const (
	stripeShift = 5
	numStripes  = 1 << stripeShift
)

// stripe is one shard of the object map with its own lock. The secondary
// indexes are sharded the same way: a stripe indexes exactly the objects
// it stores, so every index update rides the stripe lock the mutation
// already holds.
type stripe struct {
	mu      sync.RWMutex
	objects map[OID]*object
	// byClass indexes this stripe's live objects by class name.
	byClass map[string]map[OID]struct{}
	// relFrom indexes, per relationship type, this stripe's objects that
	// currently hold at least one outgoing link of that type.
	relFrom map[string]map[OID]struct{}
}

// addClass/delClass/addRelFrom/delRelFrom maintain the stripe-local
// indexes; the caller holds s.mu for writing.

func (s *stripe) addClass(class string, oid OID) {
	set := s.byClass[class]
	if set == nil {
		set = map[OID]struct{}{}
		s.byClass[class] = set
	}
	set[oid] = struct{}{}
}

func (s *stripe) delClass(class string, oid OID) {
	delete(s.byClass[class], oid)
}

func (s *stripe) addRelFrom(rel string, oid OID) {
	set := s.relFrom[rel]
	if set == nil {
		set = map[OID]struct{}{}
		s.relFrom[rel] = set
	}
	set[oid] = struct{}{}
}

func (s *stripe) delRelFrom(rel string, oid OID) {
	delete(s.relFrom[rel], oid)
}

// Store is a live OMS database instance. All methods are safe for concurrent
// use.
type Store struct {
	schema  *Schema
	stripes [numStripes]stripe

	// feed is the sequenced change log every committed mutation
	// publishes into (see feed.go).
	feed *feed

	// allocMu guards OID allocation only.
	allocMu sync.Mutex
	nextOID OID

	// blobs is the optional content-addressed store large blob values
	// spill into; spillAt is the threshold in bytes (see blobref.go).
	// Both are set once at wire-up, before the store is shared.
	blobs   *blobstore.Store
	spillAt int

	// stats for the performance experiments (section 3.6). Blob bytes are
	// counted logically (what callers hand in/out); statBlobPhys counts
	// only bytes written inline — the CAS counts its own physical writes.
	// obs.Counter cells so RegisterMetrics can expose the same cells the
	// Stats() view reads (see metrics.go).
	statOps      obs.Counter
	statBlobIn   obs.Counter // logical bytes copied into the database
	statBlobOut  obs.Counter // logical bytes copied out of the database
	statBlobPhys obs.Counter // bytes physically stored inline

	// metrics holds the store's latency instruments (see metrics.go).
	metrics storeMetrics
}

// NewStore returns an empty store enforcing schema.
func NewStore(schema *Schema) *Store {
	st := &Store{
		schema:  schema,
		nextOID: 1,
		feed:    newFeed(),
	}
	for i := range st.stripes {
		st.stripes[i].objects = map[OID]*object{}
		st.stripes[i].byClass = map[string]map[OID]struct{}{}
		st.stripes[i].relFrom = map[string]map[OID]struct{}{}
	}
	return st
}

// Schema returns the schema the store enforces.
func (st *Store) Schema() *Schema { return st.schema }

// Stats reports cumulative operation counters (ops, logical blob bytes
// in, logical blob bytes out). Used by the section 3.6 experiments; the
// logical/physical split behind the dedup ratio is in the registry
// (RegisterMetrics).
func (st *Store) Stats() (ops, blobIn, blobOut int64) {
	return st.statOps.Load(), st.statBlobIn.Load(), st.statBlobOut.Load()
}

// --- striping ---------------------------------------------------------

// stripeIdx maps an OID onto its stripe (Fibonacci hashing so sequential
// OIDs spread across stripes instead of clustering): the top stripeShift
// bits of the hash select among the numStripes stripes.
func stripeIdx(oid OID) int {
	return int((uint64(oid) * 0x9E3779B97F4A7C15) >> (64 - stripeShift))
}

func (st *Store) stripeOf(oid OID) *stripe { return &st.stripes[stripeIdx(oid)] }

// lockPair write-locks the stripes of two OIDs in ascending stripe order
// (once when they collide) and returns the matching unlock. Acquisition
// wall time feeds the sampled stripe-wait histogram (a zero start — the
// off-stride and disabled cases — records nothing).
func (st *Store) lockPair(a, b OID) func() {
	wait := st.metrics.stripeSampler.Sample(stripeWaitStride)
	i, j := stripeIdx(a), stripeIdx(b)
	if i == j {
		s := &st.stripes[i]
		s.mu.Lock()
		st.metrics.stripeWait.Since(wait)
		return s.mu.Unlock
	}
	if i > j {
		i, j = j, i
	}
	si, sj := &st.stripes[i], &st.stripes[j]
	si.mu.Lock()
	sj.mu.Lock()
	st.metrics.stripeWait.Since(wait)
	return func() { sj.mu.Unlock(); si.mu.Unlock() }
}

// lockAll write-locks every stripe in ascending order. Used by the cold
// whole-store paths (Delete, replication apply and reset).
func (st *Store) lockAll() {
	for i := range st.stripes {
		st.stripes[i].mu.Lock()
	}
}

func (st *Store) unlockAll() {
	for i := len(st.stripes) - 1; i >= 0; i-- {
		st.stripes[i].mu.Unlock()
	}
}

// rlockAll read-locks every stripe in ascending order — the consistent-
// cut hold of Snapshot. Pairs with runlockAll.
func (st *Store) rlockAll() {
	for i := range st.stripes {
		st.stripes[i].mu.RLock()
	}
}

func (st *Store) runlockAll() {
	for i := len(st.stripes) - 1; i >= 0; i-- {
		st.stripes[i].mu.RUnlock()
	}
}

// forEachStripeRLocked visits every stripe under its read lock — the
// shared scaffolding of all gather-style queries.
func (st *Store) forEachStripeRLocked(fn func(s *stripe)) {
	for i := range st.stripes {
		s := &st.stripes[i]
		s.mu.RLock()
		fn(s)
		s.mu.RUnlock()
	}
}

// classOIDs gathers the class-index entries of every stripe, sorted.
func (st *Store) classOIDs(class string) []OID {
	var out []OID
	st.forEachStripeRLocked(func(s *stripe) {
		for oid := range s.byClass[class] {
			out = append(out, oid)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- applied mutations ------------------------------------------------

type undoFn func(st *Store)

// applied describes one applied primitive mutation: the feed record it
// publishes and the undo that reverts it (run by Apply when a later op
// of the same batch fails). A no-op (idempotent re-link, absent unlink)
// has a nil undo and publishes nothing.
type applied struct {
	change Change
	undo   undoFn
}

// commitApplied publishes a successful single-op mutation to the feed.
// The caller still holds the op's stripe write locks. No-ops (nil undo)
// publish nothing.
func (st *Store) commitApplied(a applied) {
	if a.undo == nil {
		return
	}
	st.feed.publish([]Change{a.change})
}

// --- object lifecycle -------------------------------------------------

// validateCreate checks class and attribute values against the schema —
// the lock-free half of Create, shared with Apply's validation phase.
func (st *Store) validateCreate(class string, attrs map[string]Value) error {
	cls := st.schema.class(class)
	if cls == nil {
		return fmt.Errorf("oms: unknown class %q", class)
	}
	for name, v := range attrs {
		def, ok := cls.attr(name)
		if !ok {
			return fmt.Errorf("oms: class %q has no attribute %q", class, name)
		}
		if !kindCompatible(def.Kind, v.Kind) {
			return fmt.Errorf("oms: attribute %s.%s wants %s, got %s", class, name, def.Kind, v.Kind)
		}
	}
	for _, def := range cls.Attrs {
		if def.Required {
			if _, ok := attrs[def.Name]; !ok {
				return fmt.Errorf("oms: class %q requires attribute %q", class, def.Name)
			}
		}
	}
	return nil
}

// allocOID hands out the next OID. Never called with a stripe lock held,
// keeping the stripes → allocMu order (Snapshot's cut) acyclic.
func (st *Store) allocOID() OID {
	st.allocMu.Lock()
	oid := st.nextOID
	st.nextOID++
	st.allocMu.Unlock()
	return oid
}

// insertLocked installs a validated object. The caller holds oid's stripe
// write lock and hands over ownership of attrs (values must already be
// private copies) — the map is adopted as the object's attribute map, not
// copied. Returns the applied record; the caller publishes its change to
// the feed on commit. The change record carries a private copy of the
// attribute map (Values shared — they are immutable), so later Sets
// never mutate history.
func (st *Store) insertLocked(oid OID, class string, attrs map[string]Value) applied {
	obj := newObject(oid, class)
	var recAttrs map[string]Value
	if attrs != nil {
		obj.attrs = attrs
		recAttrs = make(map[string]Value, len(attrs))
		for name, v := range attrs {
			recAttrs[name] = v
			st.noteBlobIn(v)
		}
	}
	s := st.stripeOf(oid)
	s.objects[oid] = obj
	s.addClass(class, oid)
	st.statOps.Add(1)
	return applied{
		change: Change{Kind: ChangeCreate, OID: oid, Class: class, Attrs: recAttrs},
		undo:   func(u *Store) { u.undoCreate(oid, class) },
	}
}

// Create allocates a new object of the given class with the given attribute
// values. Required attributes must be present; kinds must match the schema.
func (st *Store) Create(class string, attrs map[string]Value) (OID, error) {
	if err := st.validateCreate(class, attrs); err != nil {
		return InvalidOID, err
	}
	oid := st.allocOID()
	cp := make(map[string]Value, len(attrs))
	for name, v := range attrs {
		cp[name] = v.clone()
	}
	s := st.stripeOf(oid)
	s.mu.Lock()
	st.commitApplied(st.insertLocked(oid, class, cp))
	s.mu.Unlock()
	return oid, nil
}

// The undo helpers below run during Apply's failed-batch rollback, which
// already holds the touched stripes write-locked — they must not lock
// anything themselves.

func (st *Store) undoCreate(oid OID, class string) {
	s := st.stripeOf(oid)
	delete(s.objects, oid)
	s.delClass(class, oid)
}

// Delete removes an object and all relationships it participates in. It is
// the one multi-object operation whose reach is unbounded (links may point
// anywhere), so it takes every stripe — correct and simple; deletion is not
// on the designers' hot path. The cascade (every link detach plus the
// removal) publishes as one feed group.
func (st *Store) Delete(oid OID) error {
	st.lockAll()
	defer st.unlockAll()
	as, err := st.deleteLockedU(oid)
	if err != nil {
		return err
	}
	group := make([]Change, 0, len(as))
	for _, a := range as {
		group = append(group, a.change)
	}
	st.feed.publish(group)
	return nil
}

// deleteLockedU is Delete's body: detach every link (both directions),
// then remove the object. The caller holds every stripe write lock. The
// returned entries are ordered for reverse undo replay (links re-attach
// after the object is re-inserted) and forward feed publication (the
// unlinks precede the delete record).
func (st *Store) deleteLockedU(oid OID) ([]applied, error) {
	s := st.stripeOf(oid)
	obj, ok := s.objects[oid]
	if !ok {
		return nil, fmt.Errorf("oms: no object %d", oid)
	}
	var as []applied
	for rel, targets := range obj.links {
		for to := range targets {
			if a := st.unlinkLockedU(rel, oid, to); a.undo != nil {
				as = append(as, a)
			}
		}
	}
	for rel, sources := range obj.backlinks {
		for from := range sources {
			if a := st.unlinkLockedU(rel, from, oid); a.undo != nil {
				as = append(as, a)
			}
		}
	}
	delete(s.objects, oid)
	s.delClass(obj.class, oid)
	st.statOps.Add(1)
	as = append(as, applied{
		change: Change{Kind: ChangeDelete, OID: oid, Class: obj.class},
		undo:   func(u *Store) { u.undoDelete(oid, obj) },
	})
	return as, nil
}

func (st *Store) undoDelete(oid OID, obj *object) {
	s := st.stripeOf(oid)
	s.objects[oid] = obj
	s.addClass(obj.class, oid)
}

// Exists reports whether oid names a live object.
func (st *Store) Exists(oid OID) bool {
	s := st.stripeOf(oid)
	s.mu.RLock()
	_, ok := s.objects[oid]
	s.mu.RUnlock()
	return ok
}

// ClassOf returns the class of an object.
func (st *Store) ClassOf(oid OID) (string, error) {
	s := st.stripeOf(oid)
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[oid]
	if !ok {
		return "", fmt.Errorf("oms: no object %d", oid)
	}
	return obj.class, nil
}

// --- attributes ---------------------------------------------------------

// Set assigns an attribute value, checked against the schema.
func (st *Store) Set(oid OID, name string, v Value) error {
	return st.setOwned(oid, name, v.clone())
}

// setOwned assigns an attribute value whose ownership transfers to the
// store (the caller must not retain or mutate v's backing storage). It is
// what lets CopyIn install freshly-read file bytes with a single copy.
func (st *Store) setOwned(oid OID, name string, v Value) error {
	s := st.stripeOf(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	a, err := st.setLockedU(oid, name, v)
	if err != nil {
		return err
	}
	st.commitApplied(a)
	return nil
}

// setLockedU is Set's body. The caller holds oid's stripe write lock and
// hands over ownership of v (already a private copy). Sharing v in the
// change record is safe: Values are immutable once stored (Set replaces
// them wholesale).
func (st *Store) setLockedU(oid OID, name string, v Value) (applied, error) {
	obj, ok := st.stripeOf(oid).objects[oid]
	if !ok {
		return applied{}, fmt.Errorf("oms: no object %d", oid)
	}
	def, ok := st.schema.class(obj.class).attr(name)
	if !ok {
		return applied{}, fmt.Errorf("oms: class %q has no attribute %q", obj.class, name)
	}
	if !kindCompatible(def.Kind, v.Kind) {
		return applied{}, fmt.Errorf("oms: attribute %s.%s wants %s, got %s", obj.class, name, def.Kind, v.Kind)
	}
	old, had := obj.attrs[name]
	obj.attrs[name] = v
	st.noteBlobIn(v)
	st.statOps.Add(1)
	return applied{
		change: Change{Kind: ChangeSet, OID: oid, Class: obj.class, Attr: name, Value: v},
		undo:   func(u *Store) { u.undoSet(oid, name, old, had) },
	}, nil
}

func (st *Store) undoSet(oid OID, name string, old Value, had bool) {
	if o, ok := st.stripeOf(oid).objects[oid]; ok {
		if had {
			o.attrs[name] = old
		} else {
			delete(o.attrs, name)
		}
	}
}

// Get returns a copy of an attribute value. The bool reports presence.
func (st *Store) Get(oid OID, name string) (Value, bool, error) {
	s := st.stripeOf(oid)
	s.mu.RLock()
	obj, ok := s.objects[oid]
	if !ok {
		s.mu.RUnlock()
		return Value{}, false, fmt.Errorf("oms: no object %d", oid)
	}
	v, ok := obj.attrs[name]
	if !ok {
		s.mu.RUnlock()
		return Value{}, false, nil
	}
	out := v.clone()
	s.mu.RUnlock()
	if out.Kind == KindBlob {
		st.statBlobOut.Add(int64(len(out.Blob)))
	}
	st.statOps.Add(1)
	return out, true, nil
}

// GetString is a convenience accessor returning "" when absent.
func (st *Store) GetString(oid OID, name string) string {
	v, ok, err := st.Get(oid, name)
	if err != nil || !ok || v.Kind != KindString {
		return ""
	}
	return v.Str
}

// GetInt is a convenience accessor returning 0 when absent.
func (st *Store) GetInt(oid OID, name string) int64 {
	v, ok, err := st.Get(oid, name)
	if err != nil || !ok || v.Kind != KindInt {
		return 0
	}
	return v.Int
}

// GetBool is a convenience accessor returning false when absent.
func (st *Store) GetBool(oid OID, name string) bool {
	v, ok, err := st.Get(oid, name)
	if err != nil || !ok || v.Kind != KindBool {
		return false
	}
	return v.Bool
}

// --- relationships ------------------------------------------------------

// Link creates a relationship instance rel: from -> to, enforcing endpoint
// classes and cardinalities. Only the two stripes involved are locked.
func (st *Store) Link(rel string, from, to OID) error {
	if st.schema.rel(rel) == nil {
		return fmt.Errorf("oms: unknown relationship %q", rel)
	}
	unlock := st.lockPair(from, to)
	defer unlock()
	a, err := st.linkLockedU(rel, from, to)
	if err != nil {
		return err
	}
	st.commitApplied(a)
	return nil
}

// linkLockedU is Link's body. The caller holds the stripe write locks of
// both endpoints. Returns a no-op applied (nil undo, nil error) when the
// link already existed — the idempotent case.
func (st *Store) linkLockedU(rel string, from, to OID) (applied, error) {
	def := st.schema.rel(rel)
	if def == nil {
		return applied{}, fmt.Errorf("oms: unknown relationship %q", rel)
	}
	fobj, ok := st.stripeOf(from).objects[from]
	if !ok {
		return applied{}, fmt.Errorf("oms: no object %d", from)
	}
	tobj, ok := st.stripeOf(to).objects[to]
	if !ok {
		return applied{}, fmt.Errorf("oms: no object %d", to)
	}
	if fobj.class != def.From {
		return applied{}, fmt.Errorf("oms: relationship %q: from must be %q, got %q", rel, def.From, fobj.class)
	}
	if tobj.class != def.To {
		return applied{}, fmt.Errorf("oms: relationship %q: to must be %q, got %q", rel, def.To, tobj.class)
	}
	if fobj.links[rel][to] {
		return applied{}, nil // already linked; idempotent
	}
	if def.ToCard == One && len(fobj.links[rel]) >= 1 {
		return applied{}, fmt.Errorf("oms: relationship %q: object %d already has its single %q link", rel, from, def.To)
	}
	if def.FromCard == One && len(tobj.backlinks[rel]) >= 1 {
		return applied{}, fmt.Errorf("oms: relationship %q: object %d already has its single inbound link", rel, to)
	}
	if fobj.links[rel] == nil {
		fobj.links[rel] = map[OID]bool{}
	}
	if tobj.backlinks[rel] == nil {
		tobj.backlinks[rel] = map[OID]bool{}
	}
	fobj.links[rel][to] = true
	tobj.backlinks[rel][from] = true
	st.stripeOf(from).addRelFrom(rel, from)
	st.statOps.Add(1)
	return applied{
		change: Change{Kind: ChangeLink, Rel: rel, From: from, To: to},
		undo:   func(u *Store) { u.undoLink(rel, from, to) },
	}, nil
}

func (st *Store) undoLink(rel string, from, to OID) {
	st.unlinkNoUndo(rel, from, to)
}

// Unlink removes a relationship instance if present.
func (st *Store) Unlink(rel string, from, to OID) error {
	if st.schema.rel(rel) == nil {
		return fmt.Errorf("oms: unknown relationship %q", rel)
	}
	unlock := st.lockPair(from, to)
	defer unlock()
	st.commitApplied(st.unlinkLockedU(rel, from, to))
	return nil
}

// unlinkLockedU is Unlink's body; caller holds the stripes of both from
// and to. Returns a no-op applied when the link did not exist.
func (st *Store) unlinkLockedU(rel string, from, to OID) applied {
	fobj, ok := st.stripeOf(from).objects[from]
	if !ok {
		return applied{}
	}
	if !fobj.links[rel][to] {
		return applied{}
	}
	st.unlinkNoUndo(rel, from, to)
	st.statOps.Add(1)
	return applied{
		change: Change{Kind: ChangeUnlink, Rel: rel, From: from, To: to},
		undo:   func(u *Store) { u.undoUnlink(rel, from, to) },
	}
}

func (st *Store) undoUnlink(rel string, from, to OID) {
	f, ok1 := st.stripeOf(from).objects[from]
	t, ok2 := st.stripeOf(to).objects[to]
	if !ok1 || !ok2 {
		return
	}
	if f.links[rel] == nil {
		f.links[rel] = map[OID]bool{}
	}
	if t.backlinks[rel] == nil {
		t.backlinks[rel] = map[OID]bool{}
	}
	f.links[rel][to] = true
	t.backlinks[rel][from] = true
	st.stripeOf(from).addRelFrom(rel, from)
}

// unlinkNoUndo removes the link; caller holds the stripes of from and to.
func (st *Store) unlinkNoUndo(rel string, from, to OID) {
	if f, ok := st.stripeOf(from).objects[from]; ok {
		delete(f.links[rel], to)
		if len(f.links[rel]) == 0 {
			delete(f.links, rel)
			st.stripeOf(from).delRelFrom(rel, from)
		}
	}
	if t, ok := st.stripeOf(to).objects[to]; ok {
		delete(t.backlinks[rel], from)
		if len(t.backlinks[rel]) == 0 {
			delete(t.backlinks, rel)
		}
	}
}

// Targets returns the OIDs that from points to via rel, sorted.
func (st *Store) Targets(rel string, from OID) []OID {
	s := st.stripeOf(from)
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[from]
	if !ok {
		return nil
	}
	return sortedOIDs(obj.links[rel])
}

// Sources returns the OIDs that point to `to` via rel, sorted.
func (st *Store) Sources(rel string, to OID) []OID {
	s := st.stripeOf(to)
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[to]
	if !ok {
		return nil
	}
	return sortedOIDs(obj.backlinks[rel])
}

// Target returns the single rel target of from, or InvalidOID.
func (st *Store) Target(rel string, from OID) OID {
	ts := st.Targets(rel, from)
	if len(ts) == 0 {
		return InvalidOID
	}
	return ts[0]
}

func sortedOIDs(m map[OID]bool) []OID {
	out := make([]OID, 0, len(m))
	for o := range m {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- queries ------------------------------------------------------------

// All returns the OIDs of every object of the given class, sorted. An empty
// class returns every object in the store. Class queries answer from the
// class index without touching the object stripes.
func (st *Store) All(class string) []OID {
	if class != "" {
		return st.classOIDs(class)
	}
	var out []OID
	st.forEachStripeRLocked(func(s *stripe) {
		for oid := range s.objects {
			out = append(out, oid)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindByAttr returns every object of class whose attribute name equals v.
// With a class given, only that class's objects are visited (via the class
// index) instead of the whole store.
func (st *Store) FindByAttr(class, name string, v Value) []OID {
	var out []OID
	match := func(obj *object) {
		if got, ok := obj.attrs[name]; ok && got.Equal(v) {
			out = append(out, obj.oid)
		}
	}
	st.forEachStripeRLocked(func(s *stripe) {
		if class != "" {
			for oid := range s.byClass[class] {
				if obj, ok := s.objects[oid]; ok {
					match(obj)
				}
			}
			return
		}
		for _, obj := range s.objects {
			match(obj)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count returns the number of live objects of a class ("" counts all).
// Class counts answer straight from the index.
func (st *Store) Count(class string) int {
	n := 0
	st.forEachStripeRLocked(func(s *stripe) {
		if class != "" {
			n += len(s.byClass[class])
		} else {
			n += len(s.objects)
		}
	})
	return n
}

// LinkPair is one (from, to) instance of a relationship type.
type LinkPair struct {
	From, To OID
}

// Related returns every (from, to) pair of the given relationship type,
// sorted by from then to. The relationship index narrows the visit to
// objects that actually hold links of that type — no full-store scan.
func (st *Store) Related(rel string) []LinkPair {
	var out []LinkPair
	st.forEachStripeRLocked(func(s *stripe) {
		for from := range s.relFrom[rel] {
			if obj, ok := s.objects[from]; ok {
				for to := range obj.links[rel] {
					out = append(out, LinkPair{From: from, To: to})
				}
			}
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// ObjectsOf returns the objects participating in the given relationship
// type on the From side, sorted — an index lookup, not a scan.
func (st *Store) ObjectsOf(rel string) []OID {
	var out []OID
	st.forEachStripeRLocked(func(s *stripe) {
		for oid := range s.relFrom[rel] {
			out = append(out, oid)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
