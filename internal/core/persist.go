package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fmcad"
	"repro/internal/jcf"
	"repro/internal/oms"
	"repro/internal/oms/backend"
)

// Hybrid persistence: the slave library is inherently persistent (a
// directory with .meta), the master saves itself via jcf.Framework.Save,
// and the coupling's own state — the Table 1 bindings — is a small JSON
// file. Save/LoadHybrid make the whole coupled environment restartable.
//
// Layout under the hybrid directory (the same dir given to NewHybrid):
//
//	library/      the FMCAD slave (already on disk)
//	stage/        staging area (transient, not preserved)
//	master/       the JCF framework state
//	hybrid.json   the bindings
//
// FML customization (menu locks, triggers) is code, not data: LoadHybrid
// reinstalls the standard script, and callers re-run their own policy
// scripts, exactly as the original tools re-sourced their customization at
// startup.

// persistedBinding serializes one cell binding.
type persistedBinding struct {
	CellVersion oms.OID            `json:"cell_version"`
	FMCADCell   string             `json:"fmcad_cell"`
	DesignObjs  map[string]oms.OID `json:"design_objects"`
}

type persistedHybrid struct {
	Bindings  []persistedBinding `json:"bindings"`
	Overrides int64              `json:"overrides"`
}

// Save persists the master and the binding state into the hybrid's
// directory, alongside the already-persistent slave library.
func (h *Hybrid) Save(dir string) error {
	if err := h.JCF.Save(filepath.Join(dir, "master")); err != nil {
		return err
	}
	h.mu.RLock()
	state := persistedHybrid{Overrides: h.overrides}
	for cv, b := range h.bindings {
		dos := make(map[string]oms.OID, len(b.designObjects))
		for k, v := range b.designObjects {
			dos[k] = v
		}
		state.Bindings = append(state.Bindings, persistedBinding{
			CellVersion: cv,
			FMCADCell:   b.fmcadCell,
			DesignObjs:  dos,
		})
	}
	h.mu.RUnlock()
	sort.Slice(state.Bindings, func(i, j int) bool {
		return state.Bindings[i].CellVersion < state.Bindings[j].CellVersion
	})
	data, err := json.MarshalIndent(&state, "", " ")
	if err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	// The bindings commit through the same atomic-rename backend the
	// master's snapshot pairs use — one Put, never a torn hybrid.json.
	b, err := backend.OpenFile(dir)
	if err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if err := b.Put("hybrid.json", data); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// LoadHybrid restores a hybrid saved by Save from its directory: reopens
// the slave library, reloads the master, rebuilds the bindings and
// reinstalls the FML customization.
func LoadHybrid(dir string) (*Hybrid, error) {
	data, err := os.ReadFile(filepath.Join(dir, "hybrid.json"))
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	var state persistedHybrid
	if err := json.Unmarshal(data, &state); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	fw, err := jcf.Load(filepath.Join(dir, "master"))
	if err != nil {
		return nil, err
	}
	lib, err := fmcad.Open(filepath.Join(dir, "library"))
	if err != nil {
		return nil, err
	}
	h, err := assemble(fw, lib, dir)
	if err != nil {
		return nil, err
	}
	h.overrides = state.Overrides
	for _, pb := range state.Bindings {
		dos := make(map[string]oms.OID, len(pb.DesignObjs))
		for k, v := range pb.DesignObjs {
			dos[k] = v
		}
		b := &cellBinding{
			cellVersion:   pb.CellVersion,
			fmcadCell:     pb.FMCADCell,
			designObjects: dos,
		}
		h.bindings[pb.CellVersion] = b
		h.byCell[pb.FMCADCell] = pb.CellVersion
		h.registerBindingLocked(b)
	}
	return h, nil
}
