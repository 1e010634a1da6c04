package stackmap

import (
	"strings"
	"testing"

	"heterodc/internal/ir"
	"heterodc/internal/isa"
)

func buildMap() *Map {
	m := NewMap(isa.X86)
	m.Add(&FuncInfo{
		Name: "alpha", Entry: 0x1000, Size: 0x100, FrameSize: 48,
		Saves: []SavedReg{
			{Reg: isa.RBX, Off: -8},
			{Reg: isa.R12, Off: -16},
			{Reg: 8, IsFloat: true, Off: -24},
		},
		CallSites: []CallSite{
			{ID: 1, RetPC: 0x1040, Live: []LiveValue{
				{VReg: 3, Type: ir.I64, Loc: Loc{Kind: InReg, Reg: isa.RBX}},
				{VReg: 5, Type: ir.Ptr, Loc: Loc{Kind: InFrame, Off: -32}},
			}},
			{ID: 2, RetPC: 0x10f0},
		},
	})
	m.Add(&FuncInfo{
		Name: "beta", Entry: 0x1100, Size: 0x40,
	})
	m.Seal()
	return m
}

func TestFuncAt(t *testing.T) {
	m := buildMap()
	if f := m.FuncAt(0x1000); f == nil || f.Name != "alpha" {
		t.Fatal("FuncAt entry")
	}
	if f := m.FuncAt(0x10ff); f == nil || f.Name != "alpha" {
		t.Fatal("FuncAt last byte")
	}
	if f := m.FuncAt(0x1100); f == nil || f.Name != "beta" {
		t.Fatal("FuncAt next function")
	}
	if m.FuncAt(0x0fff) != nil {
		t.Fatal("FuncAt before text")
	}
	if m.FuncAt(0x1140) != nil {
		t.Fatal("FuncAt past end")
	}
}

func TestSiteFor(t *testing.T) {
	m := buildMap()
	fi, cs, err := m.SiteFor(0x1040)
	if err != nil || fi.Name != "alpha" || cs.ID != 1 {
		t.Fatalf("SiteFor: %v %v %v", fi, cs, err)
	}
	if _, _, err := m.SiteFor(0x1041); err == nil {
		t.Fatal("SiteFor must reject a non-site pc")
	}
	if _, _, err := m.SiteFor(0x9000); err == nil || !strings.Contains(err.Error(), "no function") {
		t.Fatalf("SiteFor unmapped: %v", err)
	}
}

func TestSiteByRetPC(t *testing.T) {
	m := buildMap()
	fi := m.Funcs["alpha"]
	if cs := fi.SiteByRetPC(0x10f0); cs == nil || cs.ID != 2 {
		t.Fatal("SiteByRetPC")
	}
	if fi.SiteByRetPC(0x1) != nil {
		t.Fatal("SiteByRetPC bogus")
	}
}

func TestSaveOffset(t *testing.T) {
	fi := buildMap().Funcs["alpha"]
	if off, ok := fi.SaveOffset(isa.RBX, false); !ok || off != -8 {
		t.Fatalf("rbx save %d %v", off, ok)
	}
	if off, ok := fi.SaveOffset(8, true); !ok || off != -24 {
		t.Fatalf("float save %d %v", off, ok)
	}
	// Same number, wrong file.
	if _, ok := fi.SaveOffset(8, false); ok {
		t.Fatal("int/float save confusion")
	}
	if _, ok := fi.SaveOffset(isa.R15, false); ok {
		t.Fatal("unsaved register reported saved")
	}
}

func TestLocString(t *testing.T) {
	if s := (Loc{Kind: InReg, Reg: 3}).String(); s != "ireg:3" {
		t.Errorf("loc string %q", s)
	}
	if s := (Loc{Kind: InReg, Reg: 3, IsFloat: true}).String(); s != "freg:3" {
		t.Errorf("loc string %q", s)
	}
	if s := (Loc{Kind: InFrame, Off: -16}).String(); s != "fp-16" {
		t.Errorf("loc string %q", s)
	}
}
