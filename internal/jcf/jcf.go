// Package jcf implements the JESSI-COMMON-Framework (JCF 3.0) of the
// paper: a CAD framework with strong design management, two-level
// versioning, team-based concurrent engineering via workspaces, prescribed
// design flows and a common object-oriented database (OMS) that holds both
// metadata and design data.
//
// The package reproduces the section 2.1 architecture:
//
//   - Resources (users, teams, tools, view types, flows) are metadata,
//     defined in advance by the framework administrator and fully under
//     framework control.
//   - Project data are cells and relationships between cells. Cells have
//     cell versions; each cell version carries its (possibly modified)
//     flow and team, and contains variants — a second versioning
//     mechanism for exploring alternatives.
//   - The workspace concept lets exactly one user reserve a cell version;
//     everyone else may only read the published parts. This is "the
//     kernel of the JCF multi-user capabilities".
//   - All data live in the OMS database. Encapsulated tools exchange
//     design data with the database only through UNIX files (CopyIn /
//     CopyOut) — "direct access to the internal structure of the stored
//     data ... is not possible", which is also why even read-only tool
//     access pays a full copy-out (section 3.6).
//
// Release gating: New takes a Release. Release30 reproduces the paper's
// limitations (no procedural hierarchy interface, no non-isomorphic
// hierarchies, no inter-project sharing); Release40 enables the paper's
// future-work features so the experiments can show both eras.
package jcf

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/oms/backend"
	"repro/internal/oms/blobstore"
	"repro/internal/otod"
)

// Release selects the JCF feature level.
type Release int

// Supported releases. Release30 is the paper's JCF 3.0; Release40 is the
// hypothetical next release with the paper's future-work features enabled.
const (
	Release30 Release = 30
	Release40 Release = 40
)

// String returns "3.0" or "4.0".
func (r Release) String() string {
	switch r {
	case Release30:
		return "3.0"
	case Release40:
		return "4.0"
	}
	return fmt.Sprintf("Release(%d)", int(r))
}

// Errors reported by the framework.
var (
	ErrReserved     = errors.New("jcf: cell version is reserved by another user")
	ErrNotReserved  = errors.New("jcf: cell version is not reserved by this user")
	ErrNotMember    = errors.New("jcf: user is not a member of the responsible team")
	ErrNotPublished = errors.New("jcf: cell version is not published for reading")
	ErrUnsupported  = errors.New("jcf: feature not supported in this release")
	ErrNotFound     = errors.New("jcf: object not found")
	ErrExists       = errors.New("jcf: object already exists")
)

// relNames resolves the OTO-D relationship labels into the (possibly
// qualified) oms.Schema relationship names once at startup.
type relNames struct {
	memberOf, supports          string
	has, cellHasVersion, compOf string
	attachedFlow, attachedTeam  string
	hasVariant, variantPrecedes string
	uses, doHasVersion          string
	ofViewType                  string
	equivalent, derived         string
	cfgHasVersion, cfgPrecedes  string
	hasEntry, configures        string
}

// Framework is one live JCF instance. All methods are safe for concurrent
// use. The underlying OMS store is private: tools and coupling layers get
// only this desktop API — the "closed interfaces" the paper works around.
type Framework struct {
	release Release
	model   *otod.Model
	store   *oms.Store

	// replica marks a read-only replica view (see replica.go): every
	// mutating entry point consults guardWrite before touching anything.
	// Atomic because PromoteToPrimary flips it while readers query.
	replica atomic.Bool

	// numMu serializes count-then-create version/variant numbering
	// (CreateCellVersion, CreateVariant, DeriveVariant, CheckInData,
	// DeriveConfigVersion) so concurrent designers on the same cell
	// never allocate duplicate numbers. Lock order: fw.mu may be held
	// when numMu is taken (CheckInData holds fw.mu for reading across
	// its whole batch so the reservation check stays true until the
	// commit); never the reverse. Store stripe locks are always the
	// innermost.
	numMu sync.Mutex

	// saveMu serializes Save/SaveTo: the commit epoch is a
	// read-modify-write on the backend. Designers never touch it.
	// The lastSave fields (guarded by saveMu) anchor differential
	// saves: a delta continues from the previous commit only when this
	// framework instance wrote that commit to the same backend — any
	// mismatch (first save, different backend, loaded framework) falls
	// back to a full base snapshot.
	saveMu        sync.Mutex
	lastSaveTo    backend.Backend
	lastSaveEpoch int64
	lastSaveLSN   uint64
	maxDeltaChain int // 0 means defaultMaxDeltaChain

	// batchPool recycles oms.Batch builders for the hot grouped paths
	// (CheckInData, CreateDesignObject): one checkin = one small batch,
	// and pooling keeps the builder allocation off the per-checkin cost.
	batchPool sync.Pool

	// cc is the feed-driven consistency-check cache (see
	// CheckConsistency): the last sweep's verdict plus the feed position
	// it was computed at. Guarded by cc.mu — its own lock, because a
	// consistency check must not stall designers holding fw.mu.
	cc struct {
		mu    sync.Mutex
		valid bool
		lsn   uint64
		cache []Inconsistency
	}

	// mu guards the framework-level maps below. Reads vastly outnumber
	// writes on the designers' hot path (reservation checks, flow lookups),
	// so readers share the lock; the OMS store underneath does its own
	// finer-grained striping.
	mu sync.RWMutex
	// flows registered as resources, by name. Entries appear only once a
	// flow is fully materialized; in-flight registrations live in
	// flowsPending so readers never observe a half-registered flow.
	flows map[string]*flow.Flow
	// flowsPending reserves flow names during RegisterFlow.
	flowsPending map[string]bool
	// flowOIDs maps flow name -> OMS Flow object.
	flowOIDs map[string]oms.OID
	// reservations: cell version OID -> user name holding the workspace.
	reservations map[oms.OID]string
	// enactments: cell version OID -> flow enactment.
	enactments map[oms.OID]*flow.Enactment
	// typedHier (Release 4.0 only): per-viewtype hierarchies, allowing
	// non-isomorphic designs: parent CV -> viewtype name -> children.
	typedHier map[oms.OID]map[string][]oms.OID
	// shares (Release 4.0 only): project OID -> cells shared into it.
	shares map[oms.OID][]oms.OID

	rel relNames

	// blobs is the optional content-addressed design-data store (see
	// blobs.go); blobThreshold is the checkin spill threshold in bytes.
	// Both are set once by EnableBlobStore, before concurrent use.
	blobs         *blobstore.Store
	blobThreshold int

	// upMu guards the per-cell-version async-upload ledger behind the
	// Publish durability gate: uploads counts blob uploads still in
	// flight, upCond wakes publishers waiting for them to drain. Lock
	// order: fw.mu (and numMu) may be held when upMu is taken — never the
	// reverse; upMu is a leaf.
	upMu    sync.Mutex
	upCond  *sync.Cond
	uploads map[oms.OID]*cvUploads

	// statReserveConflicts counts rejected reservations (section 3.1).
	// An obs.Counter cell so ReserveConflicts and a /metrics scrape read
	// it without touching fw.mu.
	statReserveConflicts obs.Counter

	// metrics holds the checkin-pipeline instruments (see metrics.go).
	metrics fwMetrics
}

// New creates a framework instance of the given release with a fresh OMS
// database enforcing the Figure 1 information model.
func New(release Release) (*Framework, error) {
	if release != Release30 && release != Release40 {
		return nil, fmt.Errorf("jcf: unknown release %d", int(release))
	}
	model := otod.JCFModel()
	schema, err := model.Schema()
	if err != nil {
		return nil, fmt.Errorf("jcf: building schema: %w", err)
	}
	fw := &Framework{
		release:      release,
		model:        model,
		store:        oms.NewStore(schema),
		flows:        map[string]*flow.Flow{},
		flowsPending: map[string]bool{},
		flowOIDs:     map[string]oms.OID{},
		reservations: map[oms.OID]string{},
		enactments:   map[oms.OID]*flow.Enactment{},
		typedHier:    map[oms.OID]map[string][]oms.OID{},
		shares:       map[oms.OID][]oms.OID{},
		uploads:      map[oms.OID]*cvUploads{},
	}
	fw.upCond = sync.NewCond(&fw.upMu)
	r := func(name, from, to string) string {
		return model.SchemaRelName(otod.Relationship{Name: name, From: from, To: to})
	}
	fw.rel = relNames{
		memberOf:        r("memberOf", "User", "Team"),
		supports:        r("supports", "Team", "Project"),
		has:             r("has", "Project", "Cell"),
		cellHasVersion:  r("hasVersion", "Cell", "CellVersion"),
		compOf:          r("compOf", "CellVersion", "CellVersion"),
		attachedFlow:    r("attachedFlow", "CellVersion", "Flow"),
		attachedTeam:    r("attachedTeam", "CellVersion", "Team"),
		hasVariant:      r("hasVariant", "CellVersion", "Variant"),
		variantPrecedes: r("precedes", "Variant", "Variant"),
		uses:            r("uses", "Variant", "DesignObject"),
		doHasVersion:    r("hasVersion", "DesignObject", "DesignObjectVersion"),
		ofViewType:      r("ofViewType", "DesignObject", "ViewType"),
		equivalent:      r("equivalent", "DesignObjectVersion", "DesignObjectVersion"),
		derived:         r("derived", "DesignObjectVersion", "DesignObjectVersion"),
		cfgHasVersion:   r("hasVersion", "Configuration", "ConfigVersion"),
		cfgPrecedes:     r("precedes", "ConfigVersion", "ConfigVersion"),
		hasEntry:        r("hasEntry", "ConfigVersion", "DesignObjectVersion"),
		configures:      r("configures", "Configuration", "CellVersion"),
	}
	return fw, nil
}

// getBatch fetches a pooled, reset batch builder; putBatch returns it.
// Safe because Apply takes no lasting references into the batch (staged
// values are either transferred into store objects or dropped) and Reset
// zeroes every slot before the batch is reused.
func (fw *Framework) getBatch() *oms.Batch {
	if b, ok := fw.batchPool.Get().(*oms.Batch); ok {
		return b
	}
	return oms.NewBatch()
}

func (fw *Framework) putBatch(b *oms.Batch) {
	b.Reset()
	fw.batchPool.Put(b)
}

// Release returns the framework release level.
func (fw *Framework) Release() Release { return fw.release }

// Model returns the Figure 1 information model the framework enforces.
func (fw *Framework) Model() *otod.Model { return fw.model }

// MetadataOps reports the cumulative OMS operation count — the metric
// behind the "performance of metadata operations ... is sufficiently high"
// statement of section 3.6.
func (fw *Framework) MetadataOps() int64 {
	ops, _, _ := fw.store.Stats()
	return ops
}

// BlobTraffic reports cumulative design-data bytes copied into and out of
// the database.
func (fw *Framework) BlobTraffic() (in, out int64) {
	_, in, out = fw.store.Stats()
	return in, out
}

// ReserveConflicts reports the number of rejected workspace reservations.
func (fw *Framework) ReserveConflicts() int64 {
	return fw.statReserveConflicts.Load()
}

// --- resources (administrator API) ---------------------------------------

// named creates a resource object with a unique name within its class.
// When stage is non-nil it adds further ops to the same batch, keyed to
// the new object's placeholder OID, so the creation and its wiring
// commit as ONE atomic group — no reader ever observes the object
// half-linked.
func (fw *Framework) named(class, name string, stage func(b *oms.Batch, oid oms.OID)) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	if name == "" {
		return oms.InvalidOID, fmt.Errorf("jcf: empty %s name", class)
	}
	if hits := fw.store.FindByAttr(class, "name", oms.S(name)); len(hits) > 0 {
		return oms.InvalidOID, fmt.Errorf("%w: %s %q", ErrExists, class, name)
	}
	b := fw.getBatch()
	defer fw.putBatch(b)
	oid := b.Create(class, map[string]oms.Value{"name": oms.S(name)})
	if stage != nil {
		stage(b, oid)
	}
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	return created[0], nil
}

// CreateUser registers a user resource.
func (fw *Framework) CreateUser(name string) (oms.OID, error) {
	return fw.named("User", name, nil)
}

// CreateTeam registers a team resource.
func (fw *Framework) CreateTeam(name string) (oms.OID, error) {
	return fw.named("Team", name, nil)
}

// CreateTool registers a tool resource (an integrated or encapsulated
// tool; the hybrid framework registers the three FMCAD tools here).
func (fw *Framework) CreateTool(name string) (oms.OID, error) {
	return fw.named("Tool", name, nil)
}

// CreateViewType registers a view type resource.
func (fw *Framework) CreateViewType(name string) (oms.OID, error) {
	return fw.named("ViewType", name, nil)
}

// AddMember puts a user into a team.
func (fw *Framework) AddMember(team oms.OID, user oms.OID) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	return fw.store.Link(fw.rel.memberOf, user, team)
}

// lookupNamed finds a resource by class and name.
func (fw *Framework) lookupNamed(class, name string) (oms.OID, error) {
	hits := fw.store.FindByAttr(class, "name", oms.S(name))
	if len(hits) == 0 {
		return oms.InvalidOID, fmt.Errorf("%w: %s %q", ErrNotFound, class, name)
	}
	return hits[0], nil
}

// User returns the OID of a user resource by name.
func (fw *Framework) User(name string) (oms.OID, error) { return fw.lookupNamed("User", name) }

// Team returns the OID of a team resource by name.
func (fw *Framework) Team(name string) (oms.OID, error) { return fw.lookupNamed("Team", name) }

// ViewType returns the OID of a view type resource by name.
func (fw *Framework) ViewType(name string) (oms.OID, error) { return fw.lookupNamed("ViewType", name) }

// IsMember reports whether user (by OID) belongs to team.
func (fw *Framework) IsMember(team, user oms.OID) bool {
	for _, t := range fw.store.Targets(fw.rel.memberOf, user) {
		if t == team {
			return true
		}
	}
	return false
}

// Members returns the user names of a team, sorted.
func (fw *Framework) Members(team oms.OID) []string {
	var out []string
	for _, u := range fw.store.Sources(fw.rel.memberOf, team) {
		out = append(out, fw.store.GetString(u, "name"))
	}
	sort.Strings(out)
	return out
}

// RegisterFlow freezes the given flow and registers it as a framework
// resource. Flows become metadata fully under framework control; they are
// fixed and cannot be modified afterwards (section 2.1). The flow's
// activities and their tools are materialized as OMS objects.
func (fw *Framework) RegisterFlow(f *flow.Flow) (oms.OID, error) {
	if err := fw.guardWrite(); err != nil {
		return oms.InvalidOID, err
	}
	if err := f.Freeze(); err != nil {
		return oms.InvalidOID, fmt.Errorf("jcf: registering flow: %w", err)
	}
	// Reserve the name under the write lock so two concurrent
	// registrations of the same flow cannot both pass a read-locked
	// duplicate check and materialize twice. The reservation lives in
	// flowsPending, not flows, so Flow/Flows/Save never see the flow
	// until it is fully materialized.
	fw.mu.Lock()
	if fw.flowsPending[f.Name] {
		fw.mu.Unlock()
		return oms.InvalidOID, fmt.Errorf("%w: flow %q", ErrExists, f.Name)
	}
	if _, dup := fw.flows[f.Name]; dup {
		fw.mu.Unlock()
		return oms.InvalidOID, fmt.Errorf("%w: flow %q", ErrExists, f.Name)
	}
	fw.flowsPending[f.Name] = true
	fw.mu.Unlock()
	// The deferred guard retracts the reservation on any error return;
	// the success path below clears it itself.
	registered := false
	defer func() {
		if !registered {
			fw.mu.Lock()
			delete(fw.flowsPending, f.Name)
			fw.mu.Unlock()
		}
	}()

	if f.Name == "" {
		return oms.InvalidOID, fmt.Errorf("jcf: empty Flow name")
	}
	if hits := fw.store.FindByAttr("Flow", "name", oms.S(f.Name)); len(hits) > 0 {
		return oms.InvalidOID, fmt.Errorf("%w: Flow %q", ErrExists, f.Name)
	}
	// Materialize the flow object, its activities and their proxies as ONE
	// batch so the queryable metadata appears atomically: no concurrent
	// reader (or crash-consistent snapshot) ever sees a Flow object whose
	// activities are still being wired up, and any failure leaves no
	// half-materialized flow to collide with a retry.
	proxyRel := fw.model.SchemaRelName(otod.Relationship{Name: "proxies", From: "ActivityProxy", To: "Activity"})
	containsRel := fw.model.SchemaRelName(otod.Relationship{Name: "contains", From: "Flow", To: "ActivityProxy"})
	performedBy := fw.model.SchemaRelName(otod.Relationship{Name: "performedBy", From: "Activity", To: "Tool"})
	b := oms.NewBatch()
	flowPH := b.CreateOwned("Flow", map[string]oms.Value{"name": oms.S(f.Name)})
	for _, name := range f.Activities() {
		a, err := f.Activity(name)
		if err != nil {
			return oms.InvalidOID, err
		}
		actPH := b.CreateOwned("Activity", map[string]oms.Value{"name": oms.S(f.Name + "/" + name)})
		proxyPH := b.CreateOwned("ActivityProxy", map[string]oms.Value{"name": oms.S(f.Name + "/" + name + "#proxy")})
		b.Link(containsRel, flowPH, proxyPH)
		b.Link(proxyRel, proxyPH, actPH)
		if a.Tool != "" {
			if toolOID, err := fw.lookupNamed("Tool", a.Tool); err == nil {
				b.Link(performedBy, actPH, toolOID)
			}
		}
	}
	created, err := fw.store.Apply(b)
	if err != nil {
		return oms.InvalidOID, err
	}
	oid := created[0]
	fw.mu.Lock()
	fw.flows[f.Name] = f
	fw.flowOIDs[f.Name] = oid
	delete(fw.flowsPending, f.Name)
	registered = true
	fw.mu.Unlock()
	return oid, nil
}

// Flow returns a registered flow by name.
func (fw *Framework) Flow(name string) (*flow.Flow, error) {
	fw.mu.RLock()
	defer fw.mu.RUnlock()
	f, ok := fw.flows[name]
	if !ok {
		return nil, fmt.Errorf("%w: flow %q", ErrNotFound, name)
	}
	return f, nil
}

// Flows returns the registered flow names, sorted.
func (fw *Framework) Flows() []string {
	fw.mu.RLock()
	defer fw.mu.RUnlock()
	out := make([]string, 0, len(fw.flows))
	for n := range fw.flows {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
