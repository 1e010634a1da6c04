package serial_test

import (
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/dbt"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/serial"
)

func TestManagedCostFactor(t *testing.T) {
	costs := serial.ManagedDesc(isa.X86).Costs
	for _, op := range []isa.Op{isa.OpAdd, isa.OpFMul, isa.OpLd} {
		native := isa.CycleCost(isa.X86, op)
		if managed := costs[op]; float64(managed) < float64(native)*1.5 {
			t.Errorf("%s: managed cost %d not ~%gx native %d", op, managed, serial.JavaFactor, native)
		}
	}
}

// Building the emulated and managed descriptions leaves the shared native
// ones alone: each derived description points at a table of its own, and
// every shared table still holds CycleCost. A builder that scaled the
// copied table in place would rescale every native run in the process.
func TestDerivedDescsLeaveSharedAlone(t *testing.T) {
	var derived []*isa.Desc
	for _, a := range isa.Arches {
		derived = append(derived, serial.ManagedDesc(a))
		for _, host := range isa.Arches {
			if d, err := dbt.EmulatedDesc(a, host); err == nil {
				derived = append(derived, d)
			}
		}
	}
	if len(derived) != 4 {
		t.Fatalf("built %d derived descriptions, want 4", len(derived))
	}
	for _, d := range derived {
		for _, a := range isa.Arches {
			if d.Costs == isa.Describe(a).Costs {
				t.Errorf("a derived %s description shares %s's cost table", d.Name, a)
			}
		}
	}
	for _, a := range isa.Arches {
		for op, got := range isa.Describe(a).Costs {
			if want := isa.CycleCost(a, isa.Op(op)); got != want {
				t.Errorf("%s %s: shared table says %d after deriving, CycleCost %d", a, isa.Op(op), got, want)
			}
		}
	}
}

func TestManagedRunSlowerThanNative(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long main(void){
	double acc = 0.0;
	for (long i = 0; i < 100000; i++) acc += sqrt((double)i);
	return (long)(acc * 0.0);
}`))
	if err != nil {
		t.Fatal(err)
	}
	nat := core.NewTestbed()
	p1, err := nat.Spawn(img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nat.RunProcess(p1); err != nil {
		t.Fatal(err)
	}

	man := serial.NewManagedTestbed()
	p2, err := serial.SpawnManaged(man, img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := man.RunProcess(p2); err != nil {
		t.Fatal(err)
	}
	if man.Time() < nat.Time()*1.5 {
		t.Errorf("managed %.4fs not ~2x native %.4fs", man.Time(), nat.Time())
	}
}

func TestSerializedMigrationMovesWholeState(t *testing.T) {
	img, err := core.Build("t", core.Src("t.c", `
long big[20000]; // ~160 KiB of state
long main(void){
	for (long i = 0; i < 20000; i++) big[i] = i;
	migrate(1);
	long s = 0;
	for (long i = 0; i < 20000; i += 1000) s += big[i];
	print_i64_ln(s);
	print_i64_ln(getnode());
	return 0;
}`))
	if err != nil {
		t.Fatal(err)
	}
	cl := serial.NewManagedTestbed()
	p, err := serial.SpawnManaged(cl, img, core.NodeX86)
	if err != nil {
		t.Fatal(err)
	}
	var ev kernel.MigrationEvent
	cl.OnMigration = func(e kernel.MigrationEvent) { ev = e }
	if _, err := cl.RunProcess(p); err != nil {
		t.Fatal(err)
	}
	if !ev.Serialized {
		t.Fatal("migration not marked serialized")
	}
	if ev.StateBytes < 160*1024 {
		t.Errorf("serialized only %d bytes; whole state expected", ev.StateBytes)
	}
	// Eager move: after arrival the destination must hold the pages without
	// demand faults (beyond cold ones for new stack touches).
	want := "190000\n1\n"
	if got := string(p.Output()); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if ev.XformSeconds < 1e-3 {
		t.Errorf("serialization of %d bytes modelled at only %.0fµs", ev.StateBytes, ev.XformSeconds*1e6)
	}
}
