package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/flow"
	"repro/internal/fmcad"
	"repro/internal/fml"
	"repro/internal/itc"
	"repro/internal/jcf"
	"repro/internal/oms"
)

// Standard resource names the hybrid framework installs.
const (
	ToolSchematic = "fmcad-schematic"
	ToolSimulator = "fmcad-dsim"
	ToolLayout    = "fmcad-layout"

	ViewSchematic = "schematic"
	ViewLayout    = "layout"
	ViewSymbol    = "symbol"
	ViewWaveform  = "waveform"

	ActSchematicEntry = "schematic-entry"
	ActSimulate       = "simulate"
	ActLayoutEntry    = "layout-entry"
)

// The FMCAD-native data-management menu points the encapsulation locks:
// with JCF as master, designers must not bypass it through the slave's own
// checkin/checkout (section 2.4: extension-language procedures "lock menu
// points in order to prevent data inconsistency").
var lockedMenus = []string{
	"File>CheckIn",
	"File>CheckOut",
	"File>DeleteVersion",
	"Library>EditMeta",
}

// Hybrid is the coupled JCF–FMCAD framework. JCF (master) owns all design
// management; the FMCAD library (slave) holds the tools' working data.
type Hybrid struct {
	JCF    *jcf.Framework
	Lib    *fmcad.Library
	Bus    *itc.Bus
	Interp *fml.Interp
	Hooks  *fml.Hooks

	stage string // staging directory for OMS <-> file-system copies

	// mu guards the binding maps and the feed-sync state. The cross-probe
	// and experiment hot paths only read them, so readers share the lock.
	mu       sync.RWMutex
	bindings map[oms.OID]*cellBinding // cell version -> slave binding
	byCell   map[string]oms.OID       // fmcad cell name -> cell version
	// sync is the coupling's cursor into the master's change feed
	// (dirty bindings, pending library imports; see feedsync.go).
	sync feedSyncState
	// syncLibMu serializes SyncLibrary runs so two concurrent syncs
	// cannot both import the same pending version; the library I/O
	// itself runs outside h.mu (see SyncLibrary).
	syncLibMu sync.Mutex
	// overrides counts forced out-of-order activity executions that went
	// through a consistency window.
	overrides int64
}

// DefaultFlow returns the three-activity encapsulation flow of section
// 2.4: schematic entry, then digital simulation, then layout entry.
func DefaultFlow() *flow.Flow {
	f := flow.New("fmcad-encapsulation")
	// Errors are impossible for this fixed construction (unique names,
	// known references); assert that instead of discarding them.
	must := func(err error) {
		if err != nil {
			panic("core: DefaultFlow construction: " + err.Error())
		}
	}
	must(f.AddActivity(flow.Activity{Name: ActSchematicEntry, Tool: ToolSchematic, Creates: []string{ViewSchematic}}))
	must(f.AddActivity(flow.Activity{Name: ActSimulate, Tool: ToolSimulator, Needs: []string{ViewSchematic}, Creates: []string{ViewWaveform}}))
	must(f.AddActivity(flow.Activity{Name: ActLayoutEntry, Tool: ToolLayout, Needs: []string{ViewSchematic}, Creates: []string{ViewLayout}}))
	must(f.AddPrecedes(ActSchematicEntry, ActSimulate))
	must(f.AddPrecedes(ActSimulate, ActLayoutEntry))
	return f
}

// NewHybrid assembles the coupled framework in dir: a JCF instance of the
// given release (master), an FMCAD library under dir/library (slave), the
// ITC bus, and the FML interpreter with the encapsulation customization
// installed.
func NewHybrid(release jcf.Release, dir string) (*Hybrid, error) {
	fw, err := jcf.New(release)
	if err != nil {
		return nil, err
	}
	lib, err := fmcad.Create(filepath.Join(dir, "library"), "hybrid")
	if err != nil {
		return nil, err
	}
	h, err := assemble(fw, lib, dir)
	if err != nil {
		return nil, err
	}

	// Slave-side views for the encapsulated tools.
	for view, vt := range map[string]string{
		ViewSchematic: "schematic",
		ViewLayout:    "layout",
		ViewSymbol:    "symbol",
		ViewWaveform:  "waveform",
	} {
		if err := lib.DefineView(view, vt); err != nil {
			return nil, err
		}
	}
	// Master-side resources: view types, the three tools, the default flow.
	for _, vt := range []string{ViewSchematic, ViewLayout, ViewSymbol, ViewWaveform} {
		if _, err := fw.CreateViewType(vt); err != nil {
			return nil, err
		}
	}
	for _, tool := range []string{ToolSchematic, ToolSimulator, ToolLayout} {
		if _, err := fw.CreateTool(tool); err != nil {
			return nil, err
		}
	}
	if _, err := fw.RegisterFlow(DefaultFlow()); err != nil {
		return nil, err
	}
	return h, nil
}

// assemble wraps a master and a slave opened under dir into a Hybrid —
// the one construction path NewHybrid and LoadHybrid share: the ITC bus,
// the FML interpreter, the feed-sync cursor at the master's current LSN,
// and the extension-language customization of section 2.4, which locks
// the FMCAD-native data-management menus and registers the consistency
// window trigger. The script runs in the slave's own language, as the
// original prototype did.
func assemble(fw *jcf.Framework, lib *fmcad.Library, dir string) (*Hybrid, error) {
	interp := fml.NewInterp()
	h := &Hybrid{
		JCF:      fw,
		Lib:      lib,
		Bus:      itc.NewBus(),
		Interp:   interp,
		Hooks:    fml.NewHooks(interp),
		stage:    filepath.Join(dir, "stage"),
		bindings: map[oms.OID]*cellBinding{},
		byCell:   map[string]oms.OID{},
	}
	h.initFeedSync()
	script := ""
	for _, menu := range lockedMenus {
		script += fmt.Sprintf("(hiLockMenu %q %q)\n", menu, "data management is owned by JCF")
	}
	script += `
(setq jcfConsistencyWindows 0)
(hiRegTrigger "consistency-window"
  (lambda (activity) (setq jcfConsistencyWindows (+ jcfConsistencyWindows 1))))
`
	if _, err := interp.Run(script); err != nil {
		return nil, fmt.Errorf("core: installing FML customization: %w", err)
	}
	return h, nil
}

// DefaultFlowName returns the name of the registered encapsulation flow.
func (h *Hybrid) DefaultFlowName() string { return "fmcad-encapsulation" }

// Overrides returns how many activities ran out of flow order through the
// consistency-window escape hatch.
func (h *Hybrid) Overrides() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.overrides
}

// MenuLocked reports whether the encapsulation locked an FMCAD menu point.
func (h *Hybrid) MenuLocked(menu string) bool {
	_, locked := h.Hooks.Locked(menu)
	return locked
}

// InvokeNativeMenu simulates a designer picking an FMCAD-native menu
// point. The locked data-management entries fail — the guard the paper's
// customization installs.
func (h *Hybrid) InvokeNativeMenu(menu string) error {
	return h.Hooks.Invoke(menu)
}

// --- provisioning -----------------------------------------------------------

// NewDesignCell creates a JCF cell with an initial cell version running
// the given flow, and binds the version to a fresh FMCAD cell with
// cellviews for the flow's view types. It returns the cell version OID.
func (h *Hybrid) NewDesignCell(project oms.OID, cellName, flowName string, team oms.OID) (oms.OID, error) {
	cell, err := h.JCF.CreateCell(project, cellName)
	if err != nil {
		return oms.InvalidOID, err
	}
	return h.NewCellVersion(cell, flowName, team)
}

// NewCellVersion instantiates another version of an existing JCF cell,
// binding it to its own FMCAD cell (Table 1: CellVersion -> Cell).
func (h *Hybrid) NewCellVersion(cell oms.OID, flowName string, team oms.OID) (oms.OID, error) {
	cv, err := h.JCF.CreateCellVersion(cell, flowName, team)
	if err != nil {
		return oms.InvalidOID, err
	}
	fmcadCell := FMCADCellName(h.JCF.CellName(cell), h.JCF.CellVersionNum(cv))
	if err := h.Lib.CreateCell(fmcadCell); err != nil {
		return oms.InvalidOID, err
	}
	binding := &cellBinding{
		cellVersion:   cv,
		fmcadCell:     fmcadCell,
		designObjects: map[string]oms.OID{},
	}
	variant := h.JCF.Variants(cv)[0]
	for _, view := range []string{ViewSchematic, ViewLayout, ViewWaveform} {
		if err := h.Lib.CreateCellview(fmcadCell, view); err != nil {
			return oms.InvalidOID, err
		}
		vt, err := h.JCF.ViewType(view)
		if err != nil {
			return oms.InvalidOID, err
		}
		do, err := h.JCF.CreateDesignObject(variant, cellName(h, cell)+"-"+view, vt)
		if err != nil {
			return oms.InvalidOID, err
		}
		binding.designObjects[view] = do
	}
	h.mu.Lock()
	h.bindings[cv] = binding
	h.byCell[fmcadCell] = cv
	h.registerBindingLocked(binding)
	h.mu.Unlock()
	return cv, nil
}

func cellName(h *Hybrid, cell oms.OID) string { return h.JCF.CellName(cell) }

// BindingFor returns the mapping state of a cell version.
func (h *Hybrid) BindingFor(cv oms.OID) (Binding, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	b, ok := h.bindings[cv]
	if !ok {
		return Binding{}, fmt.Errorf("core: cell version %d has no FMCAD binding", cv)
	}
	dos := make(map[string]oms.OID, len(b.designObjects))
	for k, v := range b.designObjects {
		dos[k] = v
	}
	return Binding{CellVersion: cv, FMCADCell: b.fmcadCell, DesignObjects: dos}, nil
}

// CellVersionFor resolves an FMCAD cell name back to its JCF cell version
// — the inverse mapping, used by the cross-probe wrappers.
func (h *Hybrid) CellVersionFor(fmcadCell string) (oms.OID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	cv, ok := h.byCell[fmcadCell]
	if !ok {
		return oms.InvalidOID, fmt.Errorf("core: FMCAD cell %q has no JCF binding", fmcadCell)
	}
	return cv, nil
}

// Bindings lists all bound FMCAD cell names, sorted.
func (h *Hybrid) Bindings() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.byCell))
	for name := range h.byCell {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// VerifyMapping lives in feedsync.go: the feed-driven fast path
// re-verifies only bindings the master's change feed dirtied since the
// last call; VerifyMappingFull keeps the unconditional rescan.
