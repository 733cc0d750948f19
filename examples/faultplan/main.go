// Faultplan demonstrates the declarative fault-script engine: instead of
// the paper's single T_down/T_long event, a plan drives a B-Clique
// network through a multi-phase outage — a warm-up flap burst on the
// shortcut link, a correlated two-link (SRLG-style) cut, a BGP session
// reset on a surviving clique link, and finally a repair — with
// convergence and looping metrics measured per phase.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/core"
	"bgploop/internal/experiment"
	"bgploop/internal/faultplan"
	"bgploop/internal/topology"
)

func main() {
	const n = 5
	g := topology.BClique(n) // 10 nodes: chain 0..4, clique 5..9
	shortcut := topology.BCliqueShortcut(n)

	plan := &faultplan.Plan{
		Name: "srlg-outage",
		Phases: []faultplan.Phase{
			{
				// Unmeasured warm-up: three fast flaps of the shortcut
				// (with damping enabled these would accrue penalty).
				Name:  "flap-burst",
				Delay: time.Second,
				Actions: []faultplan.Action{
					faultplan.Flap(shortcut, 3, 200*time.Millisecond),
				},
			},
			{
				// The measured outage: the shortcut and the chain's backup
				// attachment fail together — one conduit, two logical
				// links — and half a second later a clique session flaps.
				Name:    "srlg-cut",
				Delay:   time.Second,
				Measure: true,
				Role:    faultplan.RoleMain,
				Actions: []faultplan.Action{
					faultplan.FailGroup(shortcut, topology.NormEdge(n-1, 2*n-1)),
					faultplan.ResetSession(topology.NormEdge(n, n+1)).AtOffset(500 * time.Millisecond),
				},
			},
			{
				// Repair and re-convergence.
				Name:    "repair",
				Delay:   2 * time.Second,
				Measure: true,
				Role:    faultplan.RoleRecovery,
				Actions: []faultplan.Action{
					faultplan.RestoreGroup(shortcut, topology.NormEdge(n-1, 2*n-1)),
				},
			},
		},
	}

	s := experiment.Scenario{
		Graph: g,
		Dest:  0,
		BGP:   bgp.DefaultConfig(),
		Seed:  1,
		// Watchdog: generous per-phase budget, 1h virtual-time ceiling.
		FaultPlan:        plan,
		PhaseEventBudget: 5_000_000,
		Horizon:          time.Hour,
	}

	fmt.Printf("Fault plan %q on %s (destination AS 0):\n", plan.Name, g.Name())
	for i, ph := range plan.Phases {
		measured := ""
		if ph.Measure {
			measured = " [measured]"
		}
		fmt.Printf("  phase %d %-10s +%v%s\n", i, ph.Name, ph.Delay, measured)
		for _, a := range ph.Actions {
			fmt.Printf("      %v\n", a)
		}
	}
	fmt.Println()

	rep, err := core.Run(s)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.PhaseTable().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("Main phase (%s): convergence %v, looping ratio %.3f, %d TTL deaths.\n",
		"srlg-cut", rep.ConvergenceTime.Round(time.Millisecond), rep.LoopingRatio, rep.TTLExhaustions)
	if rec := rep.RecoveryPhase(); rec != nil {
		fmt.Printf("Recovery: convergence %v after repair at %v.\n",
			rec.ConvergenceTime.Round(time.Millisecond),
			rec.InjectAt.Round(time.Millisecond))
	}
}
