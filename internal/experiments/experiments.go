// Package experiments regenerates every table and figure of the paper's
// evaluation (section 3 plus Table 1 and Figures 1-2). Each experiment is
// a function writing a human-readable report and returning structured
// results so both the fwbench CLI and the root benchmark suite can drive
// it; each Experiment names the paper section that makes the claim. The
// package holds the paper's experiments only: whole designer cycles are
// measured by the perfbench module.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string // e.g. "T1", "F1", "E31"
	Title string
	Paper string // where the paper makes the claim
	Run   func(w io.Writer) error
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Table 1: JCF - FMCAD object mapping", Paper: "section 2.3, Table 1", Run: RunT1},
		{ID: "F1", Title: "Figure 1: Information architecture of JCF 3.0 (OTO-D)", Paper: "section 2.1, Figure 1", Run: RunF1},
		{ID: "F2", Title: "Figure 2: Information architecture of FMCAD (OTO-D)", Paper: "section 2.2, Figure 2", Run: RunF2},
		{ID: "E31", Title: "Multi-user design and concurrency control", Paper: "section 3.1", Run: RunE31},
		{ID: "E32", Title: "Design management and data consistency", Paper: "section 3.2", Run: RunE32},
		{ID: "E33", Title: "Handling of design hierarchies", Paper: "section 3.3", Run: RunE33},
		{ID: "E34", Title: "User interface", Paper: "section 3.4", Run: RunE34},
		{ID: "E35", Title: "Flow management and derivation relations", Paper: "section 3.5", Run: RunE35},
		{ID: "E36", Title: "Performance of metadata and design data operations", Paper: "section 3.6", Run: RunE36},
		{ID: "M1", Title: "Capability matrix (section 3 summary)", Paper: "section 3", Run: RunM1},
		{ID: "A1", Title: "Ablation: menu locking on vs off", Paper: "section 2.4 design choice", Run: RunA1},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, in order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) error {
	for _, e := range Registry() {
		if err := runOne(w, e); err != nil {
			return err
		}
	}
	return nil
}

func runOne(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "==== %s: %s (%s) ====\n", e.ID, e.Title, e.Paper)
	if err := e.Run(w); err != nil {
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// header prints a sub-table heading.
func header(w io.Writer, text string) {
	fmt.Fprintf(w, "\n-- %s --\n", text)
}

// sortedKeys is a small helper for deterministic map iteration in reports.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
