package exp

import (
	"testing"

	"heterodc/internal/core"
	"heterodc/internal/isa"
	"heterodc/internal/npb"
)

// TestOverheadClassA is the Figures 6-9 regression at realistic class size:
// migration-point overhead must stay in the paper's "mostly below 5%" band.
func TestOverheadClassA(t *testing.T) {
	if testing.Short() {
		t.Skip("class A in -short mode")
	}
	over5 := 0
	n := 0
	for _, b := range []npb.Bench{npb.CG, npb.IS, npb.FT, npb.EP} {
		base, err := buildNoMigration(b, npb.ClassA, 1)
		if err != nil {
			t.Fatal(err)
		}
		instr, err := buildDefault(b, npb.ClassA, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range isa.Arches {
			rb, err := core.RunOn(core.NewSingle(arch), base, 0)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := core.RunOn(core.NewSingle(arch), instr, 0)
			if err != nil {
				t.Fatal(err)
			}
			ov := (ri.Seconds/rb.Seconds - 1) * 100
			t.Logf("%s A %s: %+.2f%%", b, arch, ov)
			n++
			if ov > 5 {
				over5++
			}
			if ov > 12 {
				t.Errorf("%s on %s: overhead %.1f%% far above the paper's band", b, arch, ov)
			}
		}
	}
	if over5*2 > n {
		t.Errorf("more than half of class A configs exceed 5%% overhead")
	}
}
