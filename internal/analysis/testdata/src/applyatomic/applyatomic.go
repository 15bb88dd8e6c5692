// Package jcf (fixture) seeds applyatomic violations: exported
// Framework methods whose call tree performs two or more separate store
// mutations — directly, through helpers, or in a loop — instead of
// staging them in one Batch committed by a single Store.Apply.
package jcf

import "errors"

var errReadOnly = errors.New("read-only replica")

// Batch mirrors the staging API shape.
type Batch struct{ ops []int }

// Store mirrors the mutating surface the analyzer recognizes by name.
type Store struct{ n int }

func (s *Store) Apply(b *Batch) error { s.n += len(b.ops); return nil }

func (s *Store) Set(k, v int) { s.n++ }

func (s *Store) Link(a, b int) { s.n++ }

// Framework mirrors the desktop API shape.
type Framework struct {
	store   *Store
	replica bool
}

func (fw *Framework) guardWrite() error {
	if fw.replica {
		return errReadOnly
	}
	return nil
}

// Batched stages both mutations in one batch — clean.
func (fw *Framework) Batched(x int) error {
	if err := fw.guardWrite(); err != nil {
		return err
	}
	b := &Batch{}
	b.ops = append(b.ops, x, x)
	return fw.store.Apply(b)
}

// Sequential performs two separate store mutations back to back.
func (fw *Framework) Sequential(x int) error { // want applyatomic "without one Batch"
	if err := fw.guardWrite(); err != nil {
		return err
	}
	fw.store.Set(x, 1)
	fw.store.Link(x, 2)
	return nil
}

// setOne hides one mutation behind a helper.
func (fw *Framework) setOne(x int) {
	fw.store.Set(x, 1)
}

// Transitive reaches its two mutations only through helpers.
func (fw *Framework) Transitive(x int) error { // want applyatomic "without one Batch"
	if err := fw.guardWrite(); err != nil {
		return err
	}
	fw.setOne(x)
	fw.setOne(x + 1)
	return nil
}

// Looped mutates once per iteration — a loop counts as two or more.
func (fw *Framework) Looped(xs []int) error { // want applyatomic "without one Batch"
	if err := fw.guardWrite(); err != nil {
		return err
	}
	for _, x := range xs {
		fw.store.Set(x, 1)
	}
	return nil
}
