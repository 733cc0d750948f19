package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/experiment"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// rebuilt is one trial re-executed layer by layer from the layers' public
// calls, the way experiment.Run composes them, with every call timed.
type rebuilt struct {
	// Main-phase outputs, compared against experiment.Run's Result.
	Replay     dataplane.ReplayResult
	Loops      []loopanalysis.Loop
	Events     uint64
	FIBChanges int
	Updates    int
	BestChange int

	// Counters of the work each layer did.
	Messages       int
	Hops           int
	ChangeInstants int
	AllLoops       int

	// Time and heap allocation per layer, summed over the trial's calls.
	DESTime, ReplayTime, LoopTime    time.Duration
	DESAlloc, ReplayAlloc, LoopAlloc uint64
}

// fibObserver records the destination's FIB changes into a
// dataplane.History and tracks the last update sent, as experiment.Run's
// measurement observer does.
type fibObserver struct {
	dest     topology.Node
	history  *dataplane.History
	lastSent des.Time
	anySent  bool
	err      error
}

func (o *fibObserver) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	if dest != o.dest || node == o.dest || o.err != nil {
		return
	}
	if err := o.history.Record(now, node, nexthop); err != nil {
		o.err = err
	}
}

func (o *fibObserver) UpdateSent(now des.Time, from, to topology.Node, update bgp.Update) {
	if now > o.lastSent {
		o.lastSent = now
	}
	o.anySent = true
}

var _ bgp.Observer = (*fibObserver)(nil)

// withDefaults fills the harness defaults experiment.Run applies.
func withDefaults(s experiment.Scenario) experiment.Scenario {
	if s.PacketInterval == 0 {
		s.PacketInterval = dataplane.DefaultInterval
	}
	if s.TTL == 0 {
		s.TTL = dataplane.DefaultTTL
	}
	if s.LinkDelay == 0 {
		s.LinkDelay = 2 * time.Millisecond
	}
	if s.MaxEvents == 0 {
		s.MaxEvents = 50_000_000
	}
	return s
}

// phaseRun is the execution record of one fault-plan phase.
type phaseRun struct {
	measure     bool
	injectAt    des.Time
	end         des.Time
	convergedAt des.Time
}

// rebuildTrial runs scenario s through des/bgp/netsim, faultplan,
// dataplane and loopanalysis directly, timing each layer call as a span
// under parent. It supports the scenarios the workloads generate: no
// transport impairment, no guards, no protocol trace.
func rebuildTrial(s experiment.Scenario, tr *Tracer, trace string, parent int) (*rebuilt, error) {
	if s.Transport != nil && s.Transport.Active() || s.TraceLimit > 0 || s.Guard.Enabled() {
		return nil, errors.New("rebuild: transport, trace and guard scenarios are not supported")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = withDefaults(s)
	plan := s.FaultPlan
	if plan == nil {
		var err error
		if plan, err = experiment.CanonicalPlan(s); err != nil {
			return nil, err
		}
	}
	if plan.NeedsTransport() {
		return nil, errors.New("rebuild: plans with degrade actions are not supported")
	}
	mainIdx := plan.MainPhase()
	if mainIdx < 0 {
		return nil, errors.New("rebuild: plan has no measured phase")
	}
	out := &rebuilt{}
	// span times the call fn as layer name and adds its time and heap
	// allocation to *d and *alloc.
	span := func(name string, d *time.Duration, alloc *uint64, fn func() error) error {
		id := tr.Begin(trace, parent, name, true)
		err := fn()
		sp := tr.End(id)
		*d += sp.Dur()
		*alloc += sp.AllocBytes
		return err
	}

	var (
		sched    *des.Scheduler
		net      *netsim.Network
		obs      *fibObserver
		probe    *bgp.OscillationProbe
		speakers []*bgp.Speaker
	)
	err := span("des.build", &out.DESTime, &out.DESAlloc, func() error {
		sched = des.NewScheduler()
		net = netsim.New(sched, s.Graph, s.LinkDelay)
		rng := des.NewRNG(s.Seed)
		obs = &fibObserver{dest: s.Dest, history: dataplane.NewHistory(s.Graph.NumNodes())}
		// experiment.Run tees an oscillation probe into every speaker's
		// observer; it changes no output but is work done per change.
		probe = bgp.NewOscillationProbe(s.Graph.NumNodes(), s.Dest)
		speakerObs := bgp.Tee(obs, probe)
		speakers = make([]*bgp.Speaker, s.Graph.NumNodes())
		for _, v := range s.Graph.Nodes() {
			sp, err := bgp.NewSpeaker(v, sched, net, s.BGP, rng, speakerObs)
			if err != nil {
				return err
			}
			speakers[v] = sp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	horizon := des.Time(math.MaxInt64)
	if s.Horizon > 0 {
		horizon = s.Horizon
	}
	budget := s.MaxEvents
	// runPhase drains the scheduler to quiescence after schedule has
	// queued the phase's stimulus.
	runPhase := func(name string, schedule func() error) error {
		return span("des.run", &out.DESTime, &out.DESAlloc, func() error {
			if err := schedule(); err != nil {
				return err
			}
			n, hitHorizon := sched.RunLimitUntil(budget, horizon)
			budget -= n
			if pending, _, _ := sched.PendingCensus(); hitHorizon || pending > 0 {
				return fmt.Errorf("rebuild: phase %s did not quiesce", name)
			}
			return obs.err
		})
	}

	if err := runPhase("initial convergence", func() error {
		probe.BeginPhase(sched.Now())
		return speakers[s.Dest].Originate(s.Dest)
	}); err != nil {
		return nil, err
	}
	runs := make([]phaseRun, len(plan.Phases))
	for i, ph := range plan.Phases {
		injectAt := sched.Now() + ph.Delay
		err := runPhase(ph.Name, func() error {
			for _, a := range ph.Actions {
				if err := a.Schedule(net, injectAt); err != nil {
					return err
				}
			}
			if ph.Measure {
				obs.lastSent, obs.anySent = 0, false
			}
			probe.BeginPhase(sched.Now())
			return nil
		})
		if err != nil {
			return nil, err
		}
		convergedAt := injectAt
		if ph.Measure && obs.anySent && obs.lastSent > injectAt {
			convergedAt = obs.lastSent
		}
		runs[i] = phaseRun{measure: ph.Measure, injectAt: injectAt, end: sched.Now(), convergedAt: convergedAt}
	}

	sources := make([]topology.Node, 0, s.Graph.NumNodes()-1)
	for _, v := range s.Graph.Nodes() {
		if v != s.Dest {
			sources = append(sources, v)
		}
	}
	for i, r := range runs {
		if !r.measure {
			continue
		}
		var replay dataplane.ReplayResult
		err := span("dataplane.replay", &out.ReplayTime, &out.ReplayAlloc, func() error {
			var err error
			replay, err = dataplane.Replay(obs.history, dataplane.ReplayConfig{
				Dest:      s.Dest,
				Sources:   sources,
				Start:     r.injectAt,
				End:       r.convergedAt,
				Interval:  s.PacketInterval,
				TTL:       s.TTL,
				LinkDelay: s.LinkDelay,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		loopHorizon := max(r.end, r.convergedAt)
		var all []loopanalysis.Loop
		_ = span("loopanalysis.findloops", &out.LoopTime, &out.LoopAlloc, func() error {
			all = loopanalysis.FindLoops(obs.history, loopHorizon)
			return nil
		})
		hasNext := i+1 < len(runs)
		var loops []loopanalysis.Loop
		for _, l := range all {
			if l.End > r.injectAt && (!hasNext || l.Start < runs[i+1].injectAt) {
				loops = append(loops, l)
			}
		}
		if i == mainIdx {
			out.Replay = replay
			out.Loops = loops
			out.Hops = replay.TotalHops
			out.AllLoops = len(all)
			for _, t := range obs.history.ChangeTimes() {
				if t <= loopHorizon {
					out.ChangeInstants++
				}
			}
		}
	}

	out.Events = sched.Executed()
	out.FIBChanges = obs.history.TotalChanges()
	out.Messages = net.Stats().Sent
	for _, sp := range speakers {
		st := sp.Stats()
		out.Updates += st.UpdatesSent()
		out.BestChange += st.BestChanges
	}
	return out, nil
}

// matches reports the first difference between the rebuilt trial and
// experiment.Run's result for the same scenario ("" when they agree).
func (r *rebuilt) matches(res *experiment.Result) string {
	switch {
	case r.Replay != res.Replay:
		return fmt.Sprintf("replay %+v != %+v", r.Replay, res.Replay)
	case !reflect.DeepEqual(r.Loops, res.Loops):
		return fmt.Sprintf("%d loops != %d loops", len(r.Loops), len(res.Loops))
	case r.Events != res.EventsExecuted:
		return fmt.Sprintf("%d events != %d", r.Events, res.EventsExecuted)
	case r.FIBChanges != res.FIBChanges:
		return fmt.Sprintf("%d FIB changes != %d", r.FIBChanges, res.FIBChanges)
	case r.Updates != res.UpdatesSent:
		return fmt.Sprintf("%d updates != %d", r.Updates, res.UpdatesSent)
	case r.BestChange != res.BestChanges:
		return fmt.Sprintf("%d best changes != %d", r.BestChange, res.BestChanges)
	}
	return ""
}
