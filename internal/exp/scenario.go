package exp

import (
	"fmt"
	"reflect"
	"strings"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fault"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/member"
	"heterodc/internal/power"
	"heterodc/internal/sched"
	"heterodc/internal/topo"
	"heterodc/internal/trace"
)

// Scenario is one cluster run of a robustness or fleet study: the machines
// and their fabric, the faults, membership and checkpointing laid over
// them, and the workload. Build assembles it; Run drives it to the end.
type Scenario struct {
	Name string
	// Arches are the machines; nil is the x86 + ARM testbed.
	Arches []isa.Arch
	// Topo is the fabric; the zero value is the flat pipe.
	Topo topo.Spec
	// Faults is injected as given, unless Storm is set: then the plan is
	// drawn from Storm against the scenario's own fabric.
	Faults fault.Plan
	Storm  *fault.StormSpec
	// Member attaches the SWIM service (nil: none); an open loop's Degrade
	// then scores node health over it.
	Member *member.Config
	// Trace records the run's events in a bounded ring.
	Trace bool
	// Ckpt checkpoints every job, tracked or open-loop; zero: none.
	Ckpt kernel.CkptPolicy
	// The workload: Img run as one tracked job per JobNodes entry, each
	// asked to migrate to MigrateTo at the first step boundary at or past
	// MigrateAt if that is positive (see core.Job); or an Open loop placed
	// by Policy.
	Img       *link.Image
	JobNodes  []int
	MigrateAt float64
	MigrateTo int
	Open      *sched.OpenLoop
	Policy    sched.Policy
	// Settle, when non-zero, runs the cluster on to this absolute instant
	// after the workload, so the counters are read at an engine-exact
	// clock. An open loop's is counted from its makespan, the first such
	// instant it knows.
	Settle float64
}

// Rig is a built scenario: its cluster and the services it asked for and,
// once Run, what its workload left.
type Rig struct {
	Cl   *kernel.Cluster
	Fab  *topo.Fabric // nil on the flat pipe
	Plan fault.Plan   // as injected
	Svc  *member.Service
	// Mgr checkpoints tracked jobs; an open loop's runner has its own.
	Mgr *ckpt.Manager
	Log *trace.EventLog
	// Spawned are the tracked jobs as spawned and Jobs their final
	// incarnations, both in Scenario order.
	Spawned, Jobs []*kernel.Process
	Open          *sched.OpenLoopResult
}

// Build assembles the scenario's cluster on the named engine.
func (s Scenario) Build(engine string) (*Rig, error) {
	arches := s.Arches
	if arches == nil {
		arches = []isa.Arch{isa.X86, isa.ARM64}
	}
	cl, fab, err := kernel.NewClusterTopo(arches, kernel.DefaultInterconnect(), s.Topo)
	if err != nil {
		return nil, err
	}
	if err := UseEngine(cl, engine); err != nil {
		return nil, err
	}
	r := &Rig{Cl: cl, Fab: fab, Plan: s.Faults}
	if s.Storm != nil {
		if fab == nil {
			return nil, fmt.Errorf("exp: %s: a storm is drawn against a fabric", s.Name)
		}
		spec := *s.Storm
		spec.Nodes, spec.Racks, spec.RackOf = len(arches), fab.Racks(), fab.Rack
		spec.UplinkLegs = func(rack int) [][2]int {
			return append(fab.Legs(fab.UplinkUp(rack)), fab.Legs(fab.UplinkDown(rack))...)
		}
		if r.Plan, err = fault.GenerateStorm(spec); err != nil {
			return nil, err
		}
		r.Plan.Seed = spec.Seed
	}
	if !reflect.ValueOf(r.Plan).IsZero() {
		cl.InjectFaults(r.Plan)
	}
	if s.Trace {
		r.Log = trace.NewEventLog(4096)
		cl.SetTracer(r.Log)
	}
	if s.Member != nil {
		if r.Svc, err = member.Attach(cl, *s.Member); err != nil {
			return nil, err
		}
	}
	if s.Open == nil && (s.Ckpt != kernel.CkptPolicy{}) {
		r.Mgr = ckpt.NewManager(cl)
	}
	return r, nil
}

// Run builds the scenario on the named engine, drives its workload to
// completion and settles it. A tracked job that failed is the caller's to
// judge (Rig.Jobs); the error is a run that could not finish.
func (s Scenario) Run(engine string) (*Rig, error) {
	r, err := s.Build(engine)
	if err != nil {
		return nil, err
	}
	cl := r.Cl
	if s.Open != nil {
		w := *s.Open
		if w.Degrade != nil && r.Svc != nil {
			deg := *w.Degrade
			deg.Health = member.NewMonitor(cl, r.Svc, member.HealthConfig{})
			w.Degrade = &deg
		}
		runner := sched.NewRunner(cl, s.Policy, power.DefaultModels(cl, true))
		runner.Checkpoint = s.Ckpt
		if r.Open, err = runner.RunOpenLoop(w); err != nil {
			return nil, err
		}
	}
	var jobs []core.Job
	for _, node := range s.JobNodes {
		p, err := cl.Spawn(s.Img, node)
		if err != nil {
			return nil, err
		}
		r.Spawned = append(r.Spawned, p)
		if r.Mgr != nil {
			r.Mgr.Track(p, s.Img, s.Ckpt)
		}
		jobs = append(jobs, core.Job{P: p, Migrate: s.MigrateAt > 0, At: s.MigrateAt, To: s.MigrateTo})
	}
	if r.Jobs, err = core.Drive(cl, r.Mgr, jobs, nil); err != nil {
		return nil, err
	}
	if settle := s.Settle; settle > 0 {
		if r.Open != nil {
			settle += r.Open.Makespan
		}
		if t := cl.Time(); t > settle {
			return nil, fmt.Errorf("exp: %s: the workload outlived the settle horizon (%.6f > %.6f)", s.Name, t, settle)
		}
		cl.Run(settle)
	}
	return r, nil
}

// Fingerprint digests every observable two engines must agree on: the
// clock, the membership counters, deaths, views and incarnations, the
// checkpoint counters and restore log, each tracked job's output and exit
// time, the open loop's digest and, on a fabric, every uplink's counters.
func (r *Rig) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v;", r.Cl.Time())
	if r.Svc != nil {
		d := r.Svc.Dump()
		fmt.Fprintf(&b, "st=%+v;deaths=%v;views=%v;inc=%v;", r.Svc.Stats(), r.Svc.Deaths(), d.Views, d.Incarnations)
	}
	if r.Mgr != nil {
		fmt.Fprintf(&b, "ckpt=%+v;restores=%+v;", r.Mgr.Stats(), r.Mgr.Restores())
	}
	for _, p := range r.Jobs {
		fmt.Fprintf(&b, "out=%q;exit=%v;", p.Output(), p.ExitTime())
	}
	if r.Open != nil {
		fmt.Fprintf(&b, "%s;ckpt=%+v;restores=%+v;", r.Open.Fingerprint(), r.Open.Ckpt, r.Open.RestoreLog)
	}
	if r.Fab != nil {
		fmt.Fprintf(&b, "uplinks=%+v;", r.Fab.UplinkStats())
	}
	return b.String()
}

// runBoth runs s on the sequential and then the parallel engine and
// reports whether the two fingerprints agree.
func (s Scenario) runBoth() (outs [2]*Rig, agree bool, err error) {
	return onBothEngines(func(engine string) (*Rig, string, error) {
		o, err := s.Run(engine)
		if err != nil {
			return nil, "", fmt.Errorf("%s (%s): %w", s.Name, engine, err)
		}
		return o, o.Fingerprint(), nil
	})
}
