// Package engine is the versionkey fixture: a tiny Sim with a version
// constant, a semantics root and a surface struct, plus the program
// constructor the lowering fixture roots. The lifecycle tests copy this
// tree to a temp dir, write the locks, edit the surface and assert each
// ratchet stage.
package engine

// Version tags the semantics of Run.
const Version = "engine-v1"

// Config is a surface struct.
type Config struct {
	Width int
}

// Sim is the fixture engine.
type Sim struct{}

// step advances one cycle.
func (s *Sim) step(w int) int {
	return w + 1
}

// finish rounds off a run; Run reaches it only as a method value.
func (s *Sim) finish(t int) int {
	return t * 1
}

// apply calls f on t.
func apply(t int, f func(int) int) int {
	return f(t)
}

// Run is the semantic root.
func (s *Sim) Run(cfg Config) int {
	t := 0
	for i := 0; i < cfg.Width; i++ {
		t = s.step(t)
	}
	return apply(t, s.finish)
}

// Op is one program instruction, surface of the lowering lock.
type Op struct {
	Kind int
}

// Program is a constructed op list.
type Program struct {
	Ops   []Op
	Width int
}

// NewProgram is the constructor the lowering lock roots across
// packages; Sim.Run does not reach it.
func NewProgram(ops []Op) Program {
	return Program{Ops: ops, Width: width(ops)}
}

func width(ops []Op) int {
	return len(ops) + 1
}
