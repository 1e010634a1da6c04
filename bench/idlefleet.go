package main

import (
	"fmt"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/topo"
)

// The idle fleet: the same sim/member/msg/topo code as flagship used the
// opposite way. No guest ever runs, so engine scans, Horizon/Groups,
// RunDue and fabric routing are the whole cost.
//
// SWIM's rotation and the node that crashes for good at half time are
// fixed, not seeded: how far suspicion spreads before the verdict's gossip
// overtakes it depends on who probes the dead node when, and allocations
// per op moved by 30 % across six SWIM seeds and as much across six crash
// nodes — more than the bounds that compare runs made with different seeds
// allow.
const (
	idleNodes      = 256
	idleRacks      = 16
	idlePeriod     = 1e-3
	idleRounds     = 80
	idleMemberSeed = 7
	idleCrashNode  = 1
	idleCrashAt    = idleRounds / 2 * idlePeriod
	idleHorizon    = idleRounds * idlePeriod
)

// idleFleet builds the idle cluster on its fat-tree.
func idleFleet() (*kernel.Cluster, error) {
	cl, _, err := kernel.NewClusterTopo(pairArches(idleNodes), kernel.DefaultInterconnect(),
		topo.Spec{Kind: topo.KindFatTree, Racks: idleRacks, Oversub: 4})
	return cl, err
}

// idleMembership schedules the crash and attaches SWIM.
func idleMembership(cl *kernel.Cluster) (*member.Service, error) {
	cl.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Node: idleCrashNode, At: idleCrashAt}}})
	return member.Attach(cl, member.Config{HeartbeatPeriod: idlePeriod, Seed: idleMemberSeed})
}

// runIdleFleet executes the scenario on one engine: the first half of the rounds is
// quiet membership, the second half suspicion, verdict polls and gossip
// about the crashed node. Both engines settle to the same absolute horizon.
func runIdleFleet(c *opCtx, eng string) (*fleetRun, error) {
	cl, err := idleFleet()
	if err != nil {
		return nil, err
	}
	er := c.engine(cl, eng)
	svc, err := idleMembership(cl)
	if err != nil {
		return nil, err
	}
	if err := er.drive(func() error {
		if t := cl.Run(idleHorizon); t < idleHorizon {
			return fmt.Errorf("idle_fleet (%s): fleet drained at t=%v", eng, t)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	deaths := svc.Deaths()
	if len(deaths) != 1 || deaths[0].Node != idleCrashNode || deaths[0].At < idleCrashAt {
		return nil, fmt.Errorf("idle_fleet (%s): want exactly the crash of node %d detected, got %+v", eng, idleCrashNode, deaths)
	}
	if eng == "seq" {
		c.note("member.detect_ms", (deaths[0].At-idleCrashAt)*1e3)
	}
	return &fleetRun{
		exits:  []float64{deaths[0].At},
		member: svc.Stats(), msg: cl.IC.Stats(),
		simSec: idleHorizon, rounds: idleNodes * idleRounds,
	}, nil
}

// setupIdleFleet has no image to build and nothing to draw from the seed:
// set-up is a dry construction of the fleet, which must start quiet or the
// first half of the op is not what it claims.
func setupIdleFleet(uint64) (func(*opCtx) error, error) {
	cl, err := idleFleet()
	if err != nil {
		return nil, err
	}
	svc, err := idleMembership(cl)
	if err != nil {
		return nil, err
	}
	if !svc.Quiet() {
		return nil, fmt.Errorf("idle_fleet: membership does not start quiet")
	}
	return func(c *opCtx) error { return both(c, runIdleFleet) }, nil
}
