// Package workflow implements the Lipstick workflow model of Section 2.2:
// modules specified by Pig Latin queries over input, state, and output
// relational schemas (Definition 2.1), workflows as connected DAGs with
// relation-labeled edges (Definition 2.2), and (sequences of) executions
// that thread module state from one execution to the next (Definition 2.3).
//
// The runner executes workflows in plain mode, or with coarse-grained
// (Section 3.1) or fine-grained (Section 3.2) provenance tracking.
package workflow

import (
	"fmt"

	"lipstick/internal/nested"
	"lipstick/internal/pig"
)

// Module is the paper's 5-tuple (S_in, S_state, S_out, Q_state, Q_out),
// with one practical adaptation: Q_state and Q_out in realistic modules
// share their computation (the dealer's output bid is the bid the state
// query just computed), so a Module carries a single Pig Latin program.
// Relations named in State are persisted from the final environment of the
// program (those it does not assign carry over unchanged); relations named
// in Out are read from the final environment as the module's output.
type Module struct {
	// Name identifies the module; invocations of the same module share
	// state (Section 4.1 relies on this for zoom semantics).
	Name string
	// In, State, Out are the disjoint relational schemas of Definition 2.1.
	In    nested.RelationSchemas
	State nested.RelationSchemas
	Out   nested.RelationSchemas
	// Program is the Pig Latin source; it may reference input and state
	// relations. An empty program makes the module a pure source (workflow
	// input module) or pass-through: output relations must then coincide
	// with input relations by name.
	Program string
	// Registry resolves the program's UDFs; may be nil.
	Registry *pig.Registry

	plan *pig.Plan
}

// Compile parses and type-checks the module program against In ∪ State and
// verifies that the declared state and output relations are produced with
// the declared schemas. It is idempotent.
func (m *Module) Compile() error {
	if m.Name == "" {
		return fmt.Errorf("workflow: module without a name")
	}
	if !m.In.Disjoint(m.State) {
		return fmt.Errorf("workflow: module %s: input and state schemas must be disjoint", m.Name)
	}
	env := m.In.Clone()
	for name, s := range m.State {
		env[name] = s
	}
	if m.Program == "" {
		// Pass-through/source module: every output must be an input (or the
		// module is a pure source with no inputs at all).
		if len(m.In) > 0 {
			for name, s := range m.Out {
				is, ok := m.In[name]
				if !ok {
					return fmt.Errorf("workflow: module %s: pass-through output %q is not an input", m.Name, name)
				}
				if !is.Equal(s) {
					return fmt.Errorf("workflow: module %s: pass-through relation %q changes schema", m.Name, name)
				}
			}
		}
		m.plan = &pig.Plan{Schemas: env}
		return nil
	}
	plan, err := pig.CompileSource(m.Program, env, m.Registry)
	if err != nil {
		return fmt.Errorf("workflow: module %s: %w", m.Name, err)
	}
	for name, want := range m.Out {
		got, ok := plan.Schemas[name]
		if !ok {
			return fmt.Errorf("workflow: module %s: output relation %q is never produced", m.Name, name)
		}
		if !typesCompatible(got, want) {
			return fmt.Errorf("workflow: module %s: output %q has schema %s, declared %s", m.Name, name, got, want)
		}
	}
	for name, want := range m.State {
		got := plan.Schemas[name] // state relations are always in scope
		if !typesCompatible(got, want) {
			return fmt.Errorf("workflow: module %s: state %q has schema %s, declared %s", m.Name, name, got, want)
		}
	}
	m.plan = plan
	return nil
}

// typesCompatible compares schemas by field types (names may differ:
// programs rename freely via AS).
func typesCompatible(got, want *nested.Schema) bool {
	if got == nil || want == nil {
		return got == want
	}
	if got.Arity() != want.Arity() {
		return false
	}
	for i := range got.Fields {
		g, w := got.Fields[i].Type, want.Fields[i].Type
		if g.Kind == nested.KindNull || w.Kind == nested.KindNull {
			continue
		}
		if g.Kind == nested.KindFloat && w.Kind == nested.KindInt ||
			g.Kind == nested.KindInt && w.Kind == nested.KindFloat {
			continue // numeric widening permitted
		}
		if g.Kind != w.Kind {
			return false
		}
	}
	return true
}

// Plan returns the compiled plan (nil before Compile).
func (m *Module) Plan() *pig.Plan { return m.plan }
