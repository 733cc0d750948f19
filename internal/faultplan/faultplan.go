// Package faultplan provides a declarative, deterministic fault-script
// engine for the simulation harness: an ordered timeline of topology and
// session events (link/node failures and repairs, correlated SRLG-style
// failure groups, periodic flap generators, BGP session resets) organised
// into phases that compile onto the DES scheduler.
//
// A Plan is a sequence of Phases. Each phase waits a configurable delay
// after the network quiesced from the previous phase, schedules its
// actions (each action carries an offset within the phase, so a phase is
// itself a small timeline), and runs the network back to quiescence. A
// phase marked Measure gets its own convergence/looping/replay metrics in
// the experiment results.
//
// The engine generalises the harness's original single-event model:
// T_down, T_long, RestoreDelay and FlapCycles are all expressible as
// canonical plans (see experiment.CanonicalPlan) that replay byte-for-byte
// identically to the legacy hard-coded sequence.
package faultplan

import (
	"errors"
	"fmt"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// Op enumerates the action kinds a plan can schedule.
type Op int

const (
	// LinkDown fails Link: the link stops carrying traffic, in-flight
	// messages are lost, both endpoints see PeerDown.
	LinkDown Op = iota + 1
	// LinkUp repairs Link; both endpoints see PeerUp and re-exchange
	// full tables.
	LinkUp
	// NodeDown fails every link incident to Node simultaneously (the
	// paper's T_down event shape).
	NodeDown
	// NodeUp repairs every failed link incident to Node.
	NodeUp
	// GroupDown fails every link in Links in one instant — a correlated
	// SRLG-style failure (one fiber cut, several logical links).
	GroupDown
	// GroupUp repairs every link in Links in one instant.
	GroupUp
	// SessionReset bounces the BGP session on Link: in-flight messages
	// are lost and both endpoints see PeerDown immediately followed by
	// PeerUp, while the physical link stays up.
	SessionReset
	// FlapLink is a periodic flap generator: Cycles fail/repair cycles
	// of Link with Period between consecutive transitions, all compiled
	// onto the scheduler when the action fires.
	FlapLink
	// Degrade installs the action's Impairment on Link (or on every link
	// in Links — a correlated degradation group: one flaky fiber shared
	// by several logical links). The link keeps carrying traffic, but
	// lossy/duplicated/reordered/jittered, per internal/transport.
	Degrade
	// Undegrade removes the impairment override from Link (or Links),
	// reverting to the scenario's base impairment or to a clean link.
	Undegrade
)

var opNames = map[Op]string{
	LinkDown:     "linkDown",
	LinkUp:       "linkUp",
	NodeDown:     "nodeDown",
	NodeUp:       "nodeUp",
	GroupDown:    "groupDown",
	GroupUp:      "groupUp",
	SessionReset: "sessionReset",
	FlapLink:     "flapLink",
	Degrade:      "degrade",
	Undegrade:    "undegrade",
}

// String names the op as in the JSON scenario schema.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// OpFromString parses the JSON scenario schema's op name.
func OpFromString(s string) (Op, error) {
	// Small fixed table; iterate ops in declaration order, not map order.
	for op := LinkDown; op <= Undegrade; op++ {
		if opNames[op] == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("faultplan: unknown op %q", s)
}

// Action is one entry of a phase's timeline.
type Action struct {
	// Op selects the action kind; the fields below are interpreted
	// according to it.
	Op Op
	// At is the action's offset from the phase's injection instant.
	At time.Duration
	// Link is the affected link (LinkDown, LinkUp, SessionReset,
	// FlapLink).
	Link topology.Edge
	// Node is the affected node (NodeDown, NodeUp).
	Node topology.Node
	// Links is the correlated failure group (GroupDown, GroupUp).
	Links []topology.Edge
	// Cycles and Period parameterise FlapLink.
	Cycles int
	Period time.Duration
	// Impairment parameterises Degrade (required there, forbidden
	// elsewhere). Undegrade needs no config: it removes the override.
	Impairment *transport.Config
}

// targets returns the action's affected links for ops that accept either
// a single Link or a Links group (Degrade, Undegrade).
func (a Action) targets() []topology.Edge {
	if len(a.Links) > 0 {
		return a.Links
	}
	return []topology.Edge{a.Link}
}

// String renders the action for diagnostics.
func (a Action) String() string {
	switch a.Op {
	case LinkDown, LinkUp, SessionReset:
		return fmt.Sprintf("%s %v", a.Op, a.Link)
	case NodeDown, NodeUp:
		return fmt.Sprintf("%s %d", a.Op, a.Node)
	case GroupDown, GroupUp:
		return fmt.Sprintf("%s %v", a.Op, a.Links)
	case FlapLink:
		return fmt.Sprintf("%s %v x%d every %v", a.Op, a.Link, a.Cycles, a.Period)
	case Degrade, Undegrade:
		return fmt.Sprintf("%s %v", a.Op, a.targets())
	default:
		return a.Op.String()
	}
}

// Validate checks the action against the topology it will run on.
func (a Action) Validate(g *topology.Graph) error {
	if a.At < 0 {
		return fmt.Errorf("faultplan: action %v has negative offset %v", a, a.At)
	}
	switch a.Op {
	case LinkDown, LinkUp, SessionReset:
		if !g.HasEdge(a.Link.A, a.Link.B) {
			return fmt.Errorf("faultplan: %s link %v not in topology", a.Op, a.Link)
		}
	case NodeDown, NodeUp:
		if !g.Valid(a.Node) {
			return fmt.Errorf("faultplan: %s node %d not in topology", a.Op, a.Node)
		}
	case GroupDown, GroupUp:
		if len(a.Links) == 0 {
			return fmt.Errorf("faultplan: %s with empty link group", a.Op)
		}
		for _, e := range a.Links {
			if !g.HasEdge(e.A, e.B) {
				return fmt.Errorf("faultplan: %s link %v not in topology", a.Op, e)
			}
		}
	case FlapLink:
		if !g.HasEdge(a.Link.A, a.Link.B) {
			return fmt.Errorf("faultplan: %s link %v not in topology", a.Op, a.Link)
		}
		if a.Cycles < 1 {
			return fmt.Errorf("faultplan: %s needs at least one cycle, got %d", a.Op, a.Cycles)
		}
		if a.Period <= 0 {
			return fmt.Errorf("faultplan: %s needs a positive period, got %v", a.Op, a.Period)
		}
	case Degrade, Undegrade:
		for _, e := range a.targets() {
			if !g.HasEdge(e.A, e.B) {
				return fmt.Errorf("faultplan: %s link %v not in topology", a.Op, e)
			}
		}
		if a.Op == Degrade {
			if a.Impairment == nil {
				return fmt.Errorf("faultplan: %s without an impairment config", a.Op)
			}
			if err := a.Impairment.Validate(); err != nil {
				return fmt.Errorf("faultplan: %s: %w", a.Op, err)
			}
		} else if a.Impairment != nil {
			return fmt.Errorf("faultplan: %s carries an impairment config", a.Op)
		}
	default:
		return fmt.Errorf("faultplan: unknown op %d", int(a.Op))
	}
	return nil
}

// Schedule compiles the action onto the network's scheduler: the action
// fires at virtual time at + a.At (a FlapLink expands into its full
// transition timeline from that instant).
func (a Action) Schedule(net *netsim.Network, at des.Time) error {
	at += a.At
	switch a.Op {
	case LinkDown:
		return net.FailLink(at, a.Link.A, a.Link.B)
	case LinkUp:
		return net.RestoreLink(at, a.Link.A, a.Link.B)
	case NodeDown:
		return net.FailNode(at, a.Node)
	case NodeUp:
		return net.RestoreNode(at, a.Node)
	case GroupDown:
		return net.FailLinks(at, a.Links)
	case GroupUp:
		return net.RestoreLinks(at, a.Links)
	case SessionReset:
		return net.ResetSession(at, a.Link.A, a.Link.B)
	case FlapLink:
		for i := 0; i < a.Cycles; i++ {
			down := at + des.Time(2*i)*a.Period
			up := at + des.Time(2*i+1)*a.Period
			if err := net.FailLink(down, a.Link.A, a.Link.B); err != nil {
				return err
			}
			if err := net.RestoreLink(up, a.Link.A, a.Link.B); err != nil {
				return err
			}
		}
		return nil
	case Degrade:
		return net.DegradeLinks(at, a.targets(), *a.Impairment)
	case Undegrade:
		return net.RestoreImpairments(at, a.targets())
	default:
		return fmt.Errorf("faultplan: unknown op %d", int(a.Op))
	}
}

// NeedsTransport reports whether any action in the plan requires an
// installed impairment model (Degrade/Undegrade); the experiment harness
// uses it to install a model even when the scenario has no base
// impairment.
func (p *Plan) NeedsTransport() bool {
	if p == nil {
		return false
	}
	for _, ph := range p.Phases {
		for _, a := range ph.Actions {
			if a.Op == Degrade || a.Op == Undegrade {
				return true
			}
		}
	}
	return false
}

// Role tags a measured phase so the experiment harness can map it onto the
// legacy top-level result fields.
type Role string

const (
	// RoleNone is an ordinary phase.
	RoleNone Role = ""
	// RoleMain marks the phase whose metrics populate the top-level
	// result (convergence time, looping duration, ...). Without an
	// explicit RoleMain the first measured phase is the main phase.
	RoleMain Role = "main"
	// RoleRecovery marks the T_up phase that the experiment result's
	// RecoveryPhase accessor returns.
	RoleRecovery Role = "recovery"
)

// Phase is one run-to-quiescence segment of a plan.
type Phase struct {
	// Name labels the phase in results and diagnoses.
	Name string
	// Delay separates the previous phase's quiescence from this phase's
	// injection instant.
	Delay time.Duration
	// Actions is the phase's timeline; all offsets are relative to the
	// injection instant.
	Actions []Action
	// Measure requests per-phase convergence/looping/replay metrics.
	Measure bool
	// Role maps the phase onto legacy result fields; see Role.
	Role Role
}

// Plan is an ordered fault script.
type Plan struct {
	// Name labels the plan in results.
	Name string
	// Phases run in order; each waits for quiescence of its predecessor.
	Phases []Phase
}

// Validate checks the plan against the topology it will run on. A runnable
// plan needs at least one phase, at least one measured phase, and every
// action must reference existing topology elements.
func (p *Plan) Validate(g *topology.Graph) error {
	if p == nil {
		return errors.New("faultplan: nil plan")
	}
	if len(p.Phases) == 0 {
		return errors.New("faultplan: plan has no phases")
	}
	measured := 0
	for i, ph := range p.Phases {
		if ph.Delay < 0 {
			return fmt.Errorf("faultplan: phase %d (%s) has negative delay %v", i, ph.Name, ph.Delay)
		}
		if len(ph.Actions) == 0 {
			return fmt.Errorf("faultplan: phase %d (%s) has no actions", i, ph.Name)
		}
		switch ph.Role {
		case RoleNone, RoleMain, RoleRecovery:
		default:
			return fmt.Errorf("faultplan: phase %d (%s) has unknown role %q", i, ph.Name, ph.Role)
		}
		if ph.Measure {
			measured++
		}
		for _, a := range ph.Actions {
			if err := a.Validate(g); err != nil {
				return fmt.Errorf("faultplan: phase %d (%s): %w", i, ph.Name, err)
			}
		}
	}
	if measured == 0 {
		return errors.New("faultplan: plan has no measured phase")
	}
	return nil
}

// MainPhase returns the index of the phase whose metrics populate the
// top-level result: the first RoleMain phase, else the first measured
// phase, else -1.
func (p *Plan) MainPhase() int {
	for i, ph := range p.Phases {
		if ph.Role == RoleMain && ph.Measure {
			return i
		}
	}
	for i, ph := range p.Phases {
		if ph.Measure {
			return i
		}
	}
	return -1
}

// RecoveryPhase returns the index of the first measured RoleRecovery
// phase, or -1.
func (p *Plan) RecoveryPhase() int {
	for i, ph := range p.Phases {
		if ph.Role == RoleRecovery && ph.Measure {
			return i
		}
	}
	return -1
}

// Convenience action builders.

// FailLink fails link e.
func FailLink(e topology.Edge) Action { return Action{Op: LinkDown, Link: e} }

// RestoreLink repairs link e.
func RestoreLink(e topology.Edge) Action { return Action{Op: LinkUp, Link: e} }

// FailNode fails every link of node v.
func FailNode(v topology.Node) Action { return Action{Op: NodeDown, Node: v} }

// RestoreNode repairs every failed link of node v.
func RestoreNode(v topology.Node) Action { return Action{Op: NodeUp, Node: v} }

// FailGroup fails the listed links in one correlated instant.
func FailGroup(links ...topology.Edge) Action {
	return Action{Op: GroupDown, Links: links}
}

// RestoreGroup repairs the listed links in one correlated instant.
func RestoreGroup(links ...topology.Edge) Action {
	return Action{Op: GroupUp, Links: links}
}

// ResetSession bounces the BGP session on link e.
func ResetSession(e topology.Edge) Action { return Action{Op: SessionReset, Link: e} }

// Flap generates cycles fail/repair cycles of link e with period between
// consecutive transitions.
func Flap(e topology.Edge, cycles int, period time.Duration) Action {
	return Action{Op: FlapLink, Link: e, Cycles: cycles, Period: period}
}

// DegradeLink installs impairment cfg on link e.
func DegradeLink(e topology.Edge, cfg transport.Config) Action {
	c := cfg
	return Action{Op: Degrade, Link: e, Impairment: &c}
}

// DegradeGroup installs impairment cfg on every listed link in one
// correlated instant.
func DegradeGroup(cfg transport.Config, links ...topology.Edge) Action {
	c := cfg
	return Action{Op: Degrade, Links: links, Impairment: &c}
}

// RestoreImpairment removes link e's impairment override.
func RestoreImpairment(e topology.Edge) Action { return Action{Op: Undegrade, Link: e} }

// AtOffset returns the action shifted to fire at offset d within its
// phase.
func (a Action) AtOffset(d time.Duration) Action {
	a.At = d
	return a
}
