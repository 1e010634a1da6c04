package ir

import (
	"math"
	"testing"
	"testing/quick"
)

// The tests here need the package's unexported names; the rest are in the
// external package ir_test.

// Property: f2i saturates rather than producing platform-defined values.
func TestPropertyF2ISaturates(t *testing.T) {
	if f2i(math.NaN()) != 0 {
		t.Error("NaN must map to 0")
	}
	if f2i(math.Inf(1)) != math.MaxInt64 || f2i(math.Inf(-1)) != math.MinInt64 {
		t.Error("infinities must saturate")
	}
	err := quick.Check(func(f float64) bool {
		v := f2i(f)
		if math.IsNaN(f) {
			return v == 0
		}
		if f >= math.MaxInt64 {
			return v == math.MaxInt64
		}
		if f <= math.MinInt64 {
			return v == math.MinInt64
		}
		return v == int64(f)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestBuilderLaysOutInterleavedBlocks: emission may switch between blocks
// in any order; Done gives each block its instructions in emission order,
// after any it already held, and Terminated follows the current block.
func TestBuilderLaysOutInterleavedBlocks(t *testing.T) {
	b := NewFunc("f", Void)
	b.Const(0)
	next := b.NewBlock("next")
	b.Const(10)
	b.SetBlock(0)
	if b.Terminated() {
		t.Error("entry terminated before its branch")
	}
	b.Const(1)
	b.Br(next)
	if !b.Terminated() {
		t.Error("entry not terminated after its branch")
	}
	b.SetBlock(next)
	b.Const(11)
	b.Ret(NoV)
	f := b.Done()
	want := [][]Kind{{KConst, KConst, KBr}, {KConst, KConst, KRet}}
	imms := [][]int64{{0, 1, 0}, {10, 11, 0}}
	for bi, blk := range f.Blocks {
		if len(blk.Instrs) != len(want[bi]) || cap(blk.Instrs) != len(blk.Instrs) {
			t.Fatalf("block %d: len %d cap %d, want len %d, cap = len", bi, len(blk.Instrs), cap(blk.Instrs), len(want[bi]))
		}
		for i, in := range blk.Instrs {
			if in.Kind != want[bi][i] || in.Imm != imms[bi][i] {
				t.Errorf("block %d instr %d: %s", bi, i, formatInstr(&in))
			}
		}
	}

	// A block held instructions before it was built into keeps them first.
	b = NewFunc("g", Void)
	b.F.Blocks[0].Instrs = []Instr{{Kind: KConst, Dst: b.F.NewVReg(I64), Imm: 7, A: NoV, B: NoV, C: NoV}}
	b.Ret(NoV)
	g := b.Done()
	if ins := g.Blocks[0].Instrs; len(ins) != 2 || ins[0].Imm != 7 || ins[1].Kind != KRet {
		t.Errorf("held instructions not kept in front: %v", g.String())
	}
}
