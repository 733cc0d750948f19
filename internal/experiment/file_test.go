package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bgploop/internal/faultplan"
	"bgploop/internal/topology"
)

func TestLoadScenarioBasic(t *testing.T) {
	spec := `{
		"topology": {"family": "clique", "size": 8},
		"event": "tdown",
		"mraiSeconds": 10,
		"enhancements": {"ghostflush": true},
		"seed": 7
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumNodes() != 8 || s.Event != TDown || s.Dest != 0 {
		t.Errorf("scenario = %+v", s)
	}
	if s.BGP.MRAI != 10*time.Second {
		t.Errorf("MRAI = %v", s.BGP.MRAI)
	}
	if !s.BGP.Enhancements.GhostFlushing {
		t.Error("ghostflush not enabled")
	}
	if s.Seed != 7 {
		t.Errorf("seed = %d", s.Seed)
	}
	// And it actually runs.
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

func TestLoadScenarioTLongDefaults(t *testing.T) {
	spec := `{
		"topology": {"family": "bclique", "size": 5},
		"event": "tlong"
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.FailLink != topology.BCliqueShortcut(5) {
		t.Errorf("FailLink = %v, want the paper's [0 5] shortcut", s.FailLink)
	}

	fig1 := `{"topology": {"family": "figure1"}, "event": "tlong"}`
	s1, err := LoadScenario(strings.NewReader(fig1))
	if err != nil {
		t.Fatal(err)
	}
	if s1.FailLink != topology.Figure1FailedLink() {
		t.Errorf("figure1 FailLink = %v", s1.FailLink)
	}
}

func TestLoadScenarioExplicitLinkAndDest(t *testing.T) {
	spec := `{
		"topology": {"family": "ring", "size": 6},
		"event": "tlong",
		"dest": 2,
		"failLink": [2, 3],
		"damping": true,
		"flapCycles": 1,
		"restoreDelaySeconds": 1.5
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dest != 2 || s.FailLink != topology.NormEdge(2, 3) {
		t.Errorf("dest/link = %d/%v", s.Dest, s.FailLink)
	}
	if s.BGP.Damping == nil {
		t.Error("damping not enabled")
	}
	if s.FlapCycles != 1 || s.RestoreDelay != 1500*time.Millisecond {
		t.Errorf("flap/restore = %d/%v", s.FlapCycles, s.RestoreDelay)
	}
}

func TestLoadScenarioTopologyFamilies(t *testing.T) {
	for _, family := range []string{"clique", "bclique", "chain", "ring", "star", "figure1", "figure2", "internet", "ba", "waxman"} {
		ts := TopologySpec{Family: family, Size: 8, Seed: 1}
		g, err := ts.Build()
		if err != nil {
			t.Errorf("%s: %v", family, err)
			continue
		}
		if g.NumNodes() == 0 {
			t.Errorf("%s: empty", family)
		}
	}
}

func TestLoadScenarioFromTopologyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.topo")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.WriteEdgeList(f, topology.Clique(5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := `{"topology": {"family": "file", "path": ` + quote(path) + `}, "event": "tdown"}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumNodes() != 5 {
		t.Errorf("nodes = %d", s.Graph.NumNodes())
	}
}

func quote(s string) string { return `"` + strings.ReplaceAll(s, `\`, `\\`) + `"` }

func TestLoadScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "bogus": 1}`,
		"unknown family":  `{"topology": {"family": "moebius", "size": 4}, "event": "tdown"}`,
		"unknown event":   `{"topology": {"family": "clique", "size": 4}, "event": "sideways"}`,
		"unknown enhance": `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "enhancements": {"warp": true}}`,
		"tlong no link":   `{"topology": {"family": "clique", "size": 4}, "event": "tlong"}`,
		"bridge link":     `{"topology": {"family": "chain", "size": 4}, "event": "tlong", "failLink": [0, 1]}`,
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadScenario(strings.NewReader(spec)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestLoadScenarioFileMissing(t *testing.T) {
	if _, err := LoadScenarioFile("/definitely/not/here.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadScenarioFaultPlan(t *testing.T) {
	spec := `{
		"topology": {"family": "ring", "size": 6},
		"faultPlan": {
			"name": "srlg-then-reset",
			"phases": [
				{"name": "cut", "delaySeconds": 2, "measure": true, "role": "main", "actions": [
					{"op": "groupDown", "links": [[0, 1], [2, 3]]},
					{"op": "sessionReset", "atSeconds": 0.5, "link": [4, 5]}
				]},
				{"name": "heal", "delaySeconds": 1, "measure": true, "role": "recovery", "actions": [
					{"op": "groupUp", "links": [[0, 1], [2, 3]]}
				]}
			]
		},
		"phaseEventBudget": 100000,
		"horizonSeconds": 600,
		"seed": 3
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.FaultPlan == nil {
		t.Fatal("FaultPlan not populated")
	}
	if s.FaultPlan.Name != "srlg-then-reset" || len(s.FaultPlan.Phases) != 2 {
		t.Errorf("plan = %+v", s.FaultPlan)
	}
	cut := s.FaultPlan.Phases[0]
	if cut.Delay != 2*time.Second || !cut.Measure || len(cut.Actions) != 2 {
		t.Errorf("cut phase = %+v", cut)
	}
	if cut.Actions[1].At != 500*time.Millisecond {
		t.Errorf("sessionReset offset = %v, want 500ms", cut.Actions[1].At)
	}
	if s.PhaseEventBudget != 100000 || s.Horizon != 10*time.Minute {
		t.Errorf("budget/horizon = %d/%v", s.PhaseEventBudget, s.Horizon)
	}
	// A plan-driven scenario runs without any "event" field.
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.RecoveryPhase() == nil {
		t.Errorf("phases = %d, recovery = %v", len(res.Phases), res.RecoveryPhase())
	}
	if res.Plan != "srlg-then-reset" {
		t.Errorf("Plan echo = %q", res.Plan)
	}
}

func TestFaultPlanSpecRoundTrip(t *testing.T) {
	g := topology.Ring(6)
	plan := &faultplan.Plan{
		Name: "round-trip",
		Phases: []faultplan.Phase{
			{
				Name:  "shake",
				Delay: 2 * time.Second,
				Actions: []faultplan.Action{
					faultplan.Flap(topology.NormEdge(0, 1), 3, 500*time.Millisecond),
					faultplan.FailNode(2).AtOffset(time.Second),
				},
			},
			{
				Name:    "cut",
				Delay:   time.Second,
				Measure: true,
				Role:    faultplan.RoleMain,
				Actions: []faultplan.Action{
					faultplan.FailGroup(topology.NormEdge(3, 4), topology.NormEdge(4, 5)),
					faultplan.ResetSession(topology.NormEdge(5, 0)),
				},
			},
			{
				Name:    "heal",
				Delay:   time.Second,
				Measure: true,
				Role:    faultplan.RoleRecovery,
				Actions: []faultplan.Action{
					faultplan.RestoreGroup(topology.NormEdge(3, 4), topology.NormEdge(4, 5)),
					faultplan.RestoreNode(2),
					faultplan.RestoreLink(topology.NormEdge(0, 1)),
				},
			},
		},
	}
	if err := plan.Validate(g); err != nil {
		t.Fatal(err)
	}

	spec := NewFaultPlanSpec(plan)
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded FaultPlanSpec
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Errorf("round trip mismatch:\n got  %+v\n want %+v", back, plan)
	}
}

func TestLoadScenarioFaultPlanErrors(t *testing.T) {
	cases := map[string]string{
		"unknown op": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "measure": true, "actions": [{"op": "teleport", "node": 1}]}]}}`,
		"missing link": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "measure": true, "actions": [{"op": "linkDown", "link": [0, 2]}]}]}}`,
		"no measured phase": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "actions": [{"op": "linkDown", "link": [0, 1]}]}]}}`,
		"no phases": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": []}}`,
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadScenario(strings.NewReader(spec)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestLoadScenarioNamedPolicy(t *testing.T) {
	spec := `{
		"topology": {"family": "clique", "size": 4},
		"event": "tdown",
		"policy": "badGadget",
		"mraiSeconds": -1,
		"maxEvents": 30000
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.NamedPolicy != PolicyBadGadget || s.BGP.PolicyFor == nil {
		t.Fatalf("NamedPolicy = %q, PolicyFor nil = %v; want the badGadget hook installed", s.NamedPolicy, s.BGP.PolicyFor == nil)
	}
	// The loaded scenario must be the same dispute as the programmatic
	// fixture: statically UNSAFE.
	rep, err := PreflightVerdict(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.String() != "UNSAFE" {
		t.Fatalf("verdict = %s, want UNSAFE", rep.Verdict)
	}
	// Named policies remain unfingerprintable for caching purposes.
	if k := s.CacheKey(); k != "" {
		t.Errorf("CacheKey = %q, want uncacheable", k)
	}

	// The marker makes the scenario spec-representable again: round trip
	// through NewScenarioSpec and re-materialise.
	back, err := NewScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy != PolicyBadGadget {
		t.Fatalf("rendered policy = %q, want %q", back.Policy, PolicyBadGadget)
	}
	s2, err := back.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s2.NamedPolicy != PolicyBadGadget || s2.BGP.PolicyFor == nil {
		t.Fatal("round-tripped scenario lost the named policy")
	}

	// The programmatic fixture is spec-representable through the same marker.
	if _, err := NewScenarioSpec(BadGadget(30_000)); err != nil {
		t.Fatalf("BadGadget fixture is not spec-representable: %v", err)
	}
}

func TestLoadScenarioNamedPolicyErrors(t *testing.T) {
	for _, spec := range []string{
		`{"topology": {"family": "clique", "size": 5}, "event": "tdown", "policy": "badGadget"}`,
		`{"topology": {"family": "clique", "size": 4}, "event": "tdown", "dest": 2, "policy": "badGadget"}`,
		`{"topology": {"family": "clique", "size": 4}, "event": "tdown", "policy": "nope"}`,
	} {
		if _, err := LoadScenario(strings.NewReader(spec)); err == nil {
			t.Errorf("LoadScenario(%s) succeeded, want error", spec)
		}
	}
}
