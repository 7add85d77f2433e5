// Package pipeline defines the black-box system abstraction DataPrism
// debugs: a system exposes only a malfunction score over datasets
// (Definition 3 of the paper). Searches consume the error-aware
// FallibleSystem contract, which tells a malfunction score apart from a
// failed measurement; System and ContextSystem are the plain-score forms
// that AsContext and AsFallible adapt to it. Intervention cost is counted
// once, by the engine that every search evaluates through
// (internal/engine, Stats.Interventions).
package pipeline

import (
	"repro/internal/dataset"
)

// System is a data-driven system under debugging. DataPrism treats it as a
// black box: the only observable is the malfunction score in [0,1], where 0
// means the system functions properly on the dataset (Definition 3).
type System interface {
	// Name identifies the system in reports.
	Name() string
	// MalfunctionScore quantifies how much the system malfunctions on d.
	MalfunctionScore(d *dataset.Dataset) float64
}

// Func adapts a plain function into a System.
type Func struct {
	SystemName string
	Score      func(d *dataset.Dataset) float64
}

// Name implements System.
func (f *Func) Name() string { return f.SystemName }

// MalfunctionScore implements System.
func (f *Func) MalfunctionScore(d *dataset.Dataset) float64 { return f.Score(d) }
