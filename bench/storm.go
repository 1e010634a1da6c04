package main

import (
	"fmt"
	"time"

	"heterodc/internal/fault"
	"heterodc/internal/kernel"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/power"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/traffic"
)

// The storm fleet is exp.Storm's quick scenario rebuilt from public
// constructors, so that each engine can be timed alone.
const (
	stormRacks   = 3
	stormPerRack = 2
	stormJobs    = 12
	stormLevels  = 3
)

// stormScenario is one seed's storm: the offered jobs, the chaos plan and
// the SWIM rotation.
type stormScenario struct {
	jobs       []sched.Job
	plan       fault.Plan
	genSeconds float64 // host time GenerateStorm took
}

// fleet builds the storm cluster on its fat-tree.
func stormFleet() (*kernel.Cluster, *topo.Fabric, error) {
	return kernel.NewClusterTopo(sched.RackArches(stormRacks*stormPerRack), kernel.DefaultInterconnect(),
		topo.FatTree(stormRacks, 4))
}

// setupStorm draws the scenario. The seed orders the jobs (a fixed
// multiset: npb.All in turn, threads cycling 1/2/4) and stamps their
// priorities. The chaos plan, the per-message fates, SWIM's rotation and
// the arrival instants keep exp.Storm's seeds (77 and 9001): another plan
// or stream is another amount of work — allocations per op moved by 85 %
// across six plan seeds and 13 % across arrival seeds — and the
// benchmark's bounds compare runs made with different seeds.
func setupStorm(seed uint64) (func(*opCtx) error, error) {
	_, fab, err := stormFleet()
	if err != nil {
		return nil, err
	}
	spec := fault.StormSpec{
		Seed:  77,
		Nodes: stormRacks * stormPerRack,
		Start: 0.02, End: 0.10,
		NodeMTTF: 0.6, NodeMTTR: 0.02,
		GrayCPUMTTF: 0.4, GrayCPUMTTR: 0.06, GrayCPUFactor: 4,
		GrayNICMTTF: 0.5, GrayNICMTTR: 0.05, GrayNICDrop: 0.3, GrayNICJitter: 1.5e-3,
		Racks: stormRacks, RackOf: fab.Rack,
		RackMTTF: 1.5, RackMTTR: 0.03,
		UplinkMTTF: 1.0, UplinkMTTR: 0.04,
		UplinkLegs: func(rack int) [][2]int {
			return append(fab.Legs(fab.UplinkUp(rack)), fab.Legs(fab.UplinkDown(rack))...)
		},
	}
	t0 := time.Now()
	plan, err := fault.GenerateStorm(spec)
	if err != nil {
		return nil, err
	}
	s := &stormScenario{plan: plan, genSeconds: time.Since(t0).Seconds()}
	s.plan.Seed = spec.Seed

	src, err := traffic.NewSource(traffic.Spec{Kind: traffic.KindPoisson, Rate: 200, Seed: 9001}.WithDefaults())
	if err != nil {
		return nil, err
	}
	threads := []int{1, 2, 4}
	for i := 0; i < stormJobs; i++ {
		s.jobs = append(s.jobs, sched.Job{Bench: npb.All[i%len(npb.All)], Class: npb.ClassS, Threads: threads[i%len(threads)]})
	}
	seeded(seed, "storm-jobs").Shuffle(len(s.jobs), func(i, j int) { s.jobs[i], s.jobs[j] = s.jobs[j], s.jobs[i] })
	for i := range s.jobs {
		s.jobs[i].ID = i
		s.jobs[i].Arrival = src.Next()
		// The open-loop driver builds through npb's image cache; fill it
		// here so no op pays the toolchain. The cache would hide that cost
		// from every set-up but the first, so each set-up also pays it in
		// the open, building the image from source.
		j := s.jobs[i]
		if _, err := npb.Build(j.Bench, j.Class, j.Threads); err != nil {
			return nil, err
		}
		if _, err := buildNPB(j.Bench, j.Class, j.Threads); err != nil {
			return nil, err
		}
	}
	sched.StampPriorities(s.jobs, subSeed(seed, "storm-priorities"), stormLevels)
	return func(c *opCtx) error {
		c.counts["fault.storm_gen_us"] = s.genSeconds * 1e6
		c.note("fault.crash_events", float64(len(s.plan.Crashes)))
		c.note("fault.partitions", float64(len(s.plan.Partitions)))
		c.note("fault.gray_windows", float64(len(s.plan.Slowdowns)+len(s.plan.Windows)/2))
		return both(c, s.run)
	}, nil
}

// run executes the storm on one engine and settles it to the horizon both
// engines reach, as exp.Storm does.
func (s *stormScenario) run(c *opCtx, eng string) (*fleetRun, error) {
	cl, fab, err := stormFleet()
	if err != nil {
		return nil, err
	}
	er := c.engine(cl, eng)
	cl.InjectFaults(s.plan)
	svc, err := member.Attach(cl, member.Config{HeartbeatPeriod: 2e-3, Seed: s.plan.Seed})
	if err != nil {
		return nil, err
	}
	r := sched.NewRunner(cl, sched.NewBalanced("storm dynamic balanced", true), power.DefaultModels(cl, true))
	r.Checkpoint = kernel.CkptPolicy{EverySeconds: 10e-3}
	var res *sched.OpenLoopResult
	err = er.drive(func() error {
		var err error
		res, err = r.RunOpenLoop(sched.OpenLoop{
			Jobs: s.jobs,
			SLO:  traffic.SLO{LatencyTargetSec: 0.25, BudgetFrac: 0.10},
			Degrade: &sched.Degrade{
				Health:       member.NewMonitor(cl, svc, member.HealthConfig{}),
				Levels:       stormLevels,
				TolerateLoss: true,
			},
		})
		if err != nil {
			return fmt.Errorf("storm (%s): %w", eng, err)
		}
		settle := res.Makespan + 0.05
		if t := cl.Time(); t > settle {
			return fmt.Errorf("storm (%s): run overshot the settle horizon (%v > %v)", eng, t, settle)
		}
		cl.Run(settle)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Shed+res.Completed+res.Lost != res.Offered {
		return nil, fmt.Errorf("storm (%s): shed %d + completed %d + lost %d != offered %d", eng, res.Shed, res.Completed, res.Lost, res.Offered)
	}
	if res.CheckpointedLost != 0 {
		return nil, fmt.Errorf("storm (%s): %d checkpointed jobs lost", eng, res.CheckpointedLost)
	}
	if eng == "seq" {
		c.note("sched.offered", float64(res.Offered))
		c.note("sched.completed", float64(res.Completed))
		c.note("sched.shed", float64(res.Shed))
		c.note("sched.lost", float64(res.Lost))
		c.note("sched.migrations", float64(res.Migrations))
		c.note("sched.evac_requests", float64(res.EvacRequests))
		c.note("ckpt.images_written", float64(res.Ckpt.ImagesWritten))
		c.note("ckpt.restores", float64(res.Ckpt.Restores))
		c.note("sim_p50_sojourn_s", res.SLO.P50Sec)
		c.note("sim_energy_j", res.EnergyTotal)
		util := 0.0
		for _, l := range fab.UplinkStats() {
			if u := l.BusySec / cl.Time(); u > util {
				util = u
			}
		}
		c.note("topo.uplink_util_max", util)
	}
	return &fleetRun{
		outputs: []string{res.Fingerprint()},
		member:  svc.Stats(), msg: cl.IC.Stats(),
		simSec: res.Makespan, rounds: float64(len(cl.Kernels)) * cl.Time() / 2e-3,
	}, nil
}
