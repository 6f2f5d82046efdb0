// Package spec is the machine-readable protocol specification: the single
// source of truth for the message/opcode table, both controller FSMs (L1 and
// directory/LLC slice) and the protocol-backend registry.
//
// The tables here drive the simulator two ways:
//
//   - Dispatch. internal/coherence builds its table-driven transition
//     interpreter from L1() and Dir() at package init: a message is legal in
//     an observed state exactly when the spec holds a Transition for the
//     (state, event) pair, and dispatches to the handler the Transition
//     names. Pairs carrying an Impossible marker panic with the marker's
//     reason. The interpreter is the controllers' only dispatch path.
//
//   - Documentation. cmd/fsspec renders Render() into PROTOCOL.md §§2–4
//     between generated-region markers; `make check` fails when the
//     committed document drifts from the tables.
//
// Every (state, event) pair of each FSM must be covered by exactly one of a
// Transition (possibly several rows with distinct guards) or an Impossible
// marker; FSM.Check enforces this and spec_test.go gates it. Guards and
// next-states are prose: legality and the action binding are the machine
// contract; the handlers themselves enforce sub-case guards.
//
// The package depends only on internal/network, so protocol backends,
// controllers and commands can all consume it without cycles.
package spec

import (
	"fmt"

	"fscoherence/internal/network"
)

// Message documents one wire opcode: its accounting class (which is also its
// FIFO virtual channel, PROTOCOL.md §5), direction and meaning.
type Message struct {
	Op        network.Op
	Direction string
	Meaning   string
}

// Transition is one legal (state, event) row of an FSM: on Event in State,
// when Guard holds, the controller runs Action and moves to Next. Guard and
// Next are prose (enforced inside the handlers); State names an observed
// state from the FSM's States list; Action names the handler the dispatcher
// binds the event to — every row of one event must name the same Action.
type Transition struct {
	State  string
	Event  network.Op
	Guard  string // "" = unconditional
	Action string
	Next   string
}

// Impossible marks a (state, event) pair the protocol can never produce;
// the dispatcher panics with Why if it is ever observed.
type Impossible struct {
	State string
	Event network.Op
	Why   string
}

// StateDoc names and documents one observed state.
type StateDoc struct {
	Name    string
	Meaning string
}

// FSM is one controller's complete transition table over its observed
// states. Events lists every opcode the controller accepts; opcodes outside
// the list are protocol errors regardless of state (the dispatcher panics
// on them).
type FSM struct {
	Name        string
	States      []StateDoc
	Events      []network.Op
	Transitions []Transition
	Impossible  []Impossible
}

// StateNames returns the observed-state names in declaration order.
func (f *FSM) StateNames() []string {
	out := make([]string, len(f.States))
	for i, s := range f.States {
		out[i] = s.Name
	}
	return out
}

// Check validates the table: every (state, event) pair over States×Events is
// covered by transitions or by exactly one Impossible marker (never both),
// all rows reference declared states and events, and all rows of one event
// agree on the Action. It returns the first violation found.
func (f *FSM) Check() error {
	states := make(map[string]bool, len(f.States))
	for _, s := range f.States {
		if states[s.Name] {
			return fmt.Errorf("%s: duplicate state %q", f.Name, s.Name)
		}
		states[s.Name] = true
	}
	events := make(map[network.Op]bool, len(f.Events))
	for _, e := range f.Events {
		if events[e] {
			return fmt.Errorf("%s: duplicate event %v", f.Name, e)
		}
		events[e] = true
	}
	type pair struct {
		s string
		e network.Op
	}
	legal := make(map[pair]bool)
	action := make(map[network.Op]string)
	for _, t := range f.Transitions {
		if !states[t.State] {
			return fmt.Errorf("%s: transition %v@%s references unknown state", f.Name, t.Event, t.State)
		}
		if !events[t.Event] {
			return fmt.Errorf("%s: transition %v@%s references unlisted event", f.Name, t.Event, t.State)
		}
		if t.Action == "" {
			return fmt.Errorf("%s: transition %v@%s has no action", f.Name, t.Event, t.State)
		}
		if a, ok := action[t.Event]; ok && a != t.Action {
			return fmt.Errorf("%s: event %v maps to conflicting actions %q and %q", f.Name, t.Event, a, t.Action)
		}
		action[t.Event] = t.Action
		legal[pair{t.State, t.Event}] = true
	}
	imposs := make(map[pair]bool)
	for _, im := range f.Impossible {
		if !states[im.State] {
			return fmt.Errorf("%s: impossible %v@%s references unknown state", f.Name, im.Event, im.State)
		}
		if !events[im.Event] {
			return fmt.Errorf("%s: impossible %v@%s references unlisted event", f.Name, im.Event, im.State)
		}
		if im.Why == "" {
			return fmt.Errorf("%s: impossible %v@%s has no reason", f.Name, im.Event, im.State)
		}
		p := pair{im.State, im.Event}
		if legal[p] {
			return fmt.Errorf("%s: %v@%s is both a transition and impossible", f.Name, im.Event, im.State)
		}
		if imposs[p] {
			return fmt.Errorf("%s: duplicate impossible marker %v@%s", f.Name, im.Event, im.State)
		}
		imposs[p] = true
	}
	for _, s := range f.States {
		for _, e := range f.Events {
			p := pair{s.Name, e}
			if !legal[p] && !imposs[p] {
				return fmt.Errorf("%s: %v@%s has neither a transition nor an impossible marker", f.Name, e, s.Name)
			}
		}
	}
	return nil
}
