package plan

import (
	"gph/internal/bitvec"
	"gph/internal/engine"
)

// The planner decides nothing: every exact engine weighs its index
// against a scan of its arena itself (core's allocation loop for gph and
// mih, HmSearch's engine.Budget, linscan trivially), and a test that needs a
// route forces it with cpu.Force. Mode, ModeAdaptive, NewPlanner, Route
// and Calibrate are what benchmark/layers.go calls; they go with
// ROADMAP 1(f)'s benchmark PR.

// Mode is the one routing policy left.
type Mode uint8

// ModeAdaptive leaves every query to its engine.
const ModeAdaptive Mode = 0

// Planner routes nothing.
type Planner struct{}

// NewPlanner returns a planner.
func NewPlanner(Mode) *Planner { return &Planner{} }

// Route does nothing: the engine's own Search answers every query.
func (*Planner) Route(engine.Engine, bitvec.Vector, int) {}

// Calibrate does nothing.
func (*Planner) Calibrate(engine.Engine) {}
