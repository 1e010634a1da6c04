package minic

import (
	"encoding/binary"
	"fmt"
	"math"

	"heterodc/internal/ir"
)

// Source is one mini-C input file.
type Source struct {
	Name string
	Code string
}

// CompileToIR parses and lowers the given sources (plus the runtime
// prelude) into a fresh IR module. The module is ready for the compiler
// backend pipeline (migration-point insertion happens there).
func CompileToIR(modName string, sources ...Source) (*ir.Module, error) {
	all := append([]Source{{Name: "<prelude>", Code: Prelude}}, sources...)
	var prog Program
	for _, src := range all {
		p, err := Parse(src.Name, src.Code)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, p.Globals...)
		prog.Funcs = append(prog.Funcs, p.Funcs...)
	}
	g := &genCtx{
		mod:     ir.NewModule(modName),
		prog:    &prog,
		funcs:   make(map[string]*FuncDecl),
		globals: make(map[string]*Decl),
	}
	return g.run()
}

type genCtx struct {
	mod     *ir.Module
	prog    *Program
	funcs   map[string]*FuncDecl
	globals map[string]*Decl
	strN    int
	scratch ir.Scratch // serves every function's builder in turn
}

func errAt(line, col int, format string, args ...interface{}) error {
	return &Error{File: "minic", Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (g *genCtx) run() (*ir.Module, error) {
	// Register signatures first so calls resolve in any order.
	for _, fd := range g.prog.Funcs {
		if _, dup := g.funcs[fd.Name]; dup {
			return nil, errAt(fd.line, fd.col, "duplicate function %s", fd.Name)
		}
		g.funcs[fd.Name] = fd
	}
	// Globals.
	for _, d := range g.prog.Globals {
		if err := g.emitGlobal(d); err != nil {
			return nil, err
		}
		g.globals[d.Name] = d
	}
	// Functions.
	for _, fd := range g.prog.Funcs {
		f, err := g.genFunc(fd)
		if err != nil {
			return nil, err
		}
		if err := g.mod.AddFunc(f); err != nil {
			return nil, errAt(fd.line, fd.col, "%v", err)
		}
	}
	if mf := g.mod.Func("main"); mf == nil {
		return nil, fmt.Errorf("minic: no main function")
	}
	return g.mod, nil
}

// constEval folds a constant expression for global initialisers.
func (g *genCtx) constEval(e *Expr) (int64, float64, bool /*isFloat*/, error) {
	switch e.Kind {
	case eInt:
		return e.Ival, 0, false, nil
	case eFloat:
		return 0, e.Fval, true, nil
	case eUnary:
		iv, fv, isF, err := g.constEval(e.L)
		if err != nil {
			return 0, 0, false, err
		}
		switch e.Op {
		case "-":
			return -iv, -fv, isF, nil
		case "~":
			return ^iv, 0, false, nil
		}
	case eBinary:
		li, lf, lF, err := g.constEval(e.L)
		if err != nil {
			return 0, 0, false, err
		}
		ri, rf, rF, err := g.constEval(e.R)
		if err != nil {
			return 0, 0, false, err
		}
		if lF || rF {
			if !lF {
				lf = float64(li)
			}
			if !rF {
				rf = float64(ri)
			}
			switch e.Op {
			case "+":
				return 0, lf + rf, true, nil
			case "-":
				return 0, lf - rf, true, nil
			case "*":
				return 0, lf * rf, true, nil
			case "/":
				return 0, lf / rf, true, nil
			}
		} else {
			switch e.Op {
			case "+":
				return li + ri, 0, false, nil
			case "-":
				return li - ri, 0, false, nil
			case "*":
				return li * ri, 0, false, nil
			case "/":
				if ri != 0 {
					return li / ri, 0, false, nil
				}
			case "%":
				if ri != 0 {
					return li % ri, 0, false, nil
				}
			case "<<":
				return li << uint(ri&63), 0, false, nil
			case ">>":
				return li >> uint(ri&63), 0, false, nil
			}
		}
	case eSizeof:
		return e.CastTy.size(), 0, false, nil
	case eCast:
		iv, fv, isF, err := g.constEval(e.L)
		if err != nil {
			return 0, 0, false, err
		}
		if e.CastTy.isFloat() {
			if !isF {
				fv = float64(iv)
			}
			return 0, fv, true, nil
		}
		if isF {
			iv = int64(fv)
		}
		return iv, 0, false, nil
	}
	return 0, 0, false, errAt(e.line, e.col, "initialiser is not a constant expression")
}

func (g *genCtx) emitGlobal(d *Decl) error {
	elem := d.Ty
	var size int64
	if d.ArrayLen >= 0 {
		size = elem.size() * d.ArrayLen
	} else {
		size = elem.size()
		if size == 1 {
			size = 8 // scalar chars stored in a word
		}
	}
	glob := &ir.Global{Name: d.Name, Size: size, Align: 8}
	put := func(off int64, iv int64, fv float64, isF bool, ty *Ty) {
		for int64(len(glob.Init)) < off+8 {
			glob.Init = append(glob.Init, 0)
		}
		switch {
		case ty.isFloat():
			if !isF {
				fv = float64(iv)
			}
			binary.LittleEndian.PutUint64(glob.Init[off:], math.Float64bits(fv))
		case ty.Kind == tyChar && d.ArrayLen >= 0:
			if isF {
				iv = int64(fv)
			}
			glob.Init[off] = byte(iv)
		default:
			if isF {
				iv = int64(fv)
			}
			binary.LittleEndian.PutUint64(glob.Init[off:], uint64(iv))
		}
	}
	switch {
	case d.Init != nil:
		if d.Init.Kind == eStr && d.Ty.Kind == tyPtr && d.Ty.Elem.Kind == tyChar {
			return errAt(d.line, d.col, "global string-pointer initialisers are unsupported; use a char array")
		}
		iv, fv, isF, err := g.constEval(d.Init)
		if err != nil {
			return err
		}
		put(0, iv, fv, isF, d.Ty)
	case len(d.InitList) > 0:
		if d.ArrayLen < 0 {
			return errAt(d.line, d.col, "initialiser list on non-array")
		}
		if int64(len(d.InitList)) > d.ArrayLen {
			return errAt(d.line, d.col, "too many initialisers")
		}
		step := elem.size()
		for i, e := range d.InitList {
			iv, fv, isF, err := g.constEval(e)
			if err != nil {
				return err
			}
			put(int64(i)*step, iv, fv, isF, elem)
		}
	}
	if int64(len(glob.Init)) > size {
		glob.Init = glob.Init[:size]
	}
	return g.mod.AddGlobal(glob)
}

// --- Function generation -----------------------------------------------------

type storageKind int

const (
	stVReg storageKind = iota
	stAlloca
	stGlobal
)

type varInfo struct {
	ty       *Ty
	isArray  bool
	arrayLen int64
	kind     storageKind
	vreg     ir.VReg
	slot     int
	global   string
}

type funcGen struct {
	g  *genCtx
	b  *ir.Builder
	fd *FuncDecl

	scopes    []map[string]*varInfo
	addrTaken map[string]bool

	// breakJumps / contJumps record blocks that must branch to the loop's
	// exit / continuation point, one list per nested loop.
	breakJumps [][]int
	contJumps  [][]int
}

// enterLoop pushes fresh jump lists; exitLoop patches them to their targets.
func (fg *funcGen) enterLoop() {
	fg.breakJumps = append(fg.breakJumps, nil)
	fg.contJumps = append(fg.contJumps, nil)
}

func (fg *funcGen) exitLoop(breakTarget, contTarget int) {
	cur := fg.b.Block()
	n := len(fg.breakJumps) - 1
	for _, blk := range fg.breakJumps[n] {
		fg.b.SetBlock(blk)
		fg.b.Br(breakTarget)
	}
	for _, blk := range fg.contJumps[n] {
		fg.b.SetBlock(blk)
		fg.b.Br(contTarget)
	}
	fg.breakJumps = fg.breakJumps[:n]
	fg.contJumps = fg.contJumps[:n]
	fg.b.SetBlock(cur)
}

// value is an rvalue with its mini-C type.
type value struct {
	v  ir.VReg
	ty *Ty
}

// lvalue is an assignable location.
type lvalue struct {
	isVReg bool
	vreg   ir.VReg // when isVReg
	addr   ir.VReg // byte address otherwise
	ty     *Ty
}

func (g *genCtx) genFunc(fd *FuncDecl) (*ir.Func, error) {
	var params []ir.Param
	for _, p := range fd.Params {
		params = append(params, ir.Param{Name: p.Name, Type: irType(p.Ty)})
	}
	fg := &funcGen{
		g:         g,
		b:         g.scratch.NewFunc(fd.Name, irType(fd.Ret), params...),
		fd:        fd,
		addrTaken: map[string]bool{},
	}
	fg.scanAddrTaken(fd.Body)
	fg.push()
	// Bind parameters; address-taken ones are demoted to allocas.
	for i, p := range fd.Params {
		vi := &varInfo{ty: p.Ty, arrayLen: -1}
		if fg.addrTaken[p.Name] {
			slot := fg.b.F.NewAlloca(8)
			if p.Ty.Kind == tyPtr {
				fg.b.F.MarkAllocaPtr(slot)
			}
			addr := fg.b.AllocaAddr(slot)
			fg.b.Store(addr, 0, fg.b.Param(i))
			vi.kind = stAlloca
			vi.slot = slot
		} else {
			vi.kind = stVReg
			vi.vreg = fg.b.Param(i)
		}
		fg.scopes[0][p.Name] = vi
	}
	if err := fg.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return.
	if fd.Ret.Kind == tyVoid {
		fg.b.Ret(ir.NoV)
	} else if fd.Ret.isFloat() {
		fg.b.Ret(fg.b.FConst(0))
	} else {
		fg.b.Ret(fg.b.Const(0))
	}
	return fg.b.Done(), nil
}

func irType(t *Ty) ir.Type {
	switch t.Kind {
	case tyDouble:
		return ir.F64
	case tyPtr:
		return ir.Ptr
	case tyVoid:
		return ir.Void
	default:
		return ir.I64
	}
}

// scanAddrTaken marks identifiers whose address is taken anywhere in the
// function, forcing them into stack slots.
func (fg *funcGen) scanAddrTaken(s *Stmt) {
	var walkE func(e *Expr)
	walkE = func(e *Expr) {
		if e == nil {
			return
		}
		if e.Kind == eUnary && e.Op == "&" && e.L != nil && e.L.Kind == eIdent {
			fg.addrTaken[e.L.Name] = true
		}
		walkE(e.L)
		walkE(e.R)
		walkE(e.C3)
		for _, a := range e.Args {
			walkE(a)
		}
	}
	var walkS func(s *Stmt)
	walkS = func(s *Stmt) {
		if s == nil {
			return
		}
		walkE(s.Expr)
		walkE(s.Cond)
		walkE(s.Post)
		for _, d := range s.Decl {
			walkE(d.Init)
			for _, e := range d.InitList {
				walkE(e)
			}
		}
		walkS(s.Init)
		walkS(s.Then)
		walkS(s.Else)
		walkS(s.Body)
		for _, c := range s.List {
			walkS(c)
		}
	}
	walkS(s)
}

// push opens a scope, reusing the map of one popped earlier.
func (fg *funcGen) push() {
	if n := len(fg.scopes); n < cap(fg.scopes) && fg.scopes[:n+1][n] != nil {
		fg.scopes = fg.scopes[:n+1]
		clear(fg.scopes[n])
		return
	}
	fg.scopes = append(fg.scopes, map[string]*varInfo{})
}

func (fg *funcGen) pop() { fg.scopes = fg.scopes[:len(fg.scopes)-1] }

func (fg *funcGen) lookup(name string) *varInfo {
	for i := len(fg.scopes) - 1; i >= 0; i-- {
		if vi, ok := fg.scopes[i][name]; ok {
			return vi
		}
	}
	if d, ok := fg.g.globals[name]; ok {
		return &varInfo{ty: d.Ty, isArray: d.ArrayLen >= 0, arrayLen: d.ArrayLen, kind: stGlobal, global: d.Name}
	}
	return nil
}

// --- Statements ---

func (fg *funcGen) stmt(s *Stmt) error {
	b := fg.b
	switch s.Kind {
	case sEmpty:
		return nil
	case sBlock:
		fg.push()
		defer fg.pop()
		for _, c := range s.List {
			if err := fg.stmt(c); err != nil {
				return err
			}
		}
		return nil
	case sDecl:
		for _, d := range s.Decl {
			if err := fg.localDecl(d); err != nil {
				return err
			}
		}
		return nil
	case sExpr:
		_, err := fg.exprVoid(s.Expr)
		return err
	case sReturn:
		if s.Expr == nil {
			if fg.fd.Ret.Kind != tyVoid {
				return errAt(s.line, s.col, "missing return value")
			}
			b.Ret(ir.NoV)
		} else {
			v, err := fg.expr(s.Expr)
			if err != nil {
				return err
			}
			v, err = fg.convert(v, fg.fd.Ret, s.line, s.col)
			if err != nil {
				return err
			}
			b.Ret(v.v)
		}
		// Continue emission in a fresh dead block so subsequent statements
		// (unreachable code) still verify.
		b.NewBlock("postret")
		return nil
	case sIf:
		cond, err := fg.condValue(s.Cond)
		if err != nil {
			return err
		}
		condBlk := b.Block()
		thenBlk := b.NewBlock("then")
		if err := fg.stmt(s.Then); err != nil {
			return err
		}
		thenEnd := b.Block()
		var elseBlk, elseEnd int
		if s.Else != nil {
			elseBlk = b.NewBlock("else")
			if err := fg.stmt(s.Else); err != nil {
				return err
			}
			elseEnd = b.Block()
		}
		join := b.NewBlock("endif")
		b.SetBlock(condBlk)
		if s.Else != nil {
			b.CondBr(cond, thenBlk, elseBlk)
			b.SetBlock(elseEnd)
			fg.linkTo(join)
		} else {
			b.CondBr(cond, thenBlk, join)
		}
		b.SetBlock(thenEnd)
		fg.linkTo(join)
		b.SetBlock(join)
		return nil
	case sWhile:
		prev := b.Block()
		head := b.NewBlock("while.head")
		b.SetBlock(prev)
		fg.linkTo(head)
		b.SetBlock(head)
		cond, err := fg.condValue(s.Cond)
		if err != nil {
			return err
		}
		headEnd := b.Block()
		body := b.NewBlock("while.body")
		fg.enterLoop()
		bodyErr := fg.stmt(s.Body)
		bodyEnd := b.Block()
		exit := b.NewBlock("while.end")
		fg.exitLoop(exit, head)
		if bodyErr != nil {
			return bodyErr
		}
		b.SetBlock(headEnd)
		b.CondBr(cond, body, exit)
		b.SetBlock(bodyEnd)
		fg.linkTo(head)
		b.SetBlock(exit)
		return nil
	case sDoWhile:
		prev := b.Block()
		body := b.NewBlock("do.body")
		b.SetBlock(prev)
		fg.linkTo(body)
		b.SetBlock(body)
		fg.enterLoop()
		bodyErr := fg.stmt(s.Body)
		bodyEnd := b.Block()
		condBlk := b.NewBlock("do.cond")
		cond, err := fg.condValue(s.Cond)
		if err != nil {
			return err
		}
		condEnd := b.Block()
		exit := b.NewBlock("do.end")
		fg.exitLoop(exit, condBlk)
		if bodyErr != nil {
			return bodyErr
		}
		b.SetBlock(bodyEnd)
		fg.linkTo(condBlk)
		b.SetBlock(condEnd)
		b.CondBr(cond, body, exit)
		b.SetBlock(exit)
		return nil
	case sFor:
		fg.push()
		defer fg.pop()
		if s.Init != nil {
			if err := fg.stmt(s.Init); err != nil {
				return err
			}
		}
		prev := b.Block()
		head := b.NewBlock("for.head")
		b.SetBlock(prev)
		fg.linkTo(head)
		b.SetBlock(head)
		var cond ir.VReg
		if s.Cond != nil {
			c, err := fg.condValue(s.Cond)
			if err != nil {
				return err
			}
			cond = c
		} else {
			cond = b.Const(1)
		}
		headEnd := b.Block()
		body := b.NewBlock("for.body")
		fg.enterLoop()
		bodyErr := fg.stmt(s.Body)
		bodyEnd := b.Block()
		postBlk := b.NewBlock("for.post")
		if bodyErr == nil && s.Post != nil {
			if _, err := fg.exprVoid(s.Post); err != nil {
				return err
			}
		}
		postEnd := b.Block()
		exit := b.NewBlock("for.end")
		fg.exitLoop(exit, postBlk)
		if bodyErr != nil {
			return bodyErr
		}
		b.SetBlock(headEnd)
		b.CondBr(cond, body, exit)
		b.SetBlock(bodyEnd)
		fg.linkTo(postBlk)
		b.SetBlock(postEnd)
		fg.linkTo(head)
		b.SetBlock(exit)
		return nil
	case sBreak:
		if len(fg.breakJumps) == 0 {
			return errAt(s.line, s.col, "break outside loop")
		}
		n := len(fg.breakJumps) - 1
		fg.breakJumps[n] = append(fg.breakJumps[n], b.Block())
		b.NewBlock("postbreak")
		return nil
	case sContinue:
		if len(fg.contJumps) == 0 {
			return errAt(s.line, s.col, "continue outside loop")
		}
		n := len(fg.contJumps) - 1
		fg.contJumps[n] = append(fg.contJumps[n], b.Block())
		b.NewBlock("postcont")
		return nil
	}
	return errAt(s.line, s.col, "unhandled statement kind %d", int(s.Kind))
}

// linkTo emits a fall-through branch from the current block to target if the
// current block lacks a terminator.
func (fg *funcGen) linkTo(target int) {
	if !fg.b.Terminated() {
		fg.b.Br(target)
	}
}

func (fg *funcGen) localDecl(d *Decl) error {
	b := fg.b
	scope := fg.scopes[len(fg.scopes)-1]
	if _, dup := scope[d.Name]; dup {
		return errAt(d.line, d.col, "redeclaration of %s", d.Name)
	}
	vi := &varInfo{ty: d.Ty, arrayLen: d.ArrayLen}
	if d.ArrayLen >= 0 {
		vi.isArray = true
		vi.kind = stAlloca
		vi.slot = b.F.NewAlloca(d.Ty.size() * d.ArrayLen)
		if d.Ty.Kind == tyPtr {
			b.F.MarkAllocaPtr(vi.slot)
		}
		scope[d.Name] = vi
		if d.Init != nil {
			return errAt(d.line, d.col, "scalar initialiser on array")
		}
		step := d.Ty.size()
		for i, e := range d.InitList {
			v, err := fg.expr(e)
			if err != nil {
				return err
			}
			v, err = fg.convert(v, d.Ty, d.line, d.col)
			if err != nil {
				return err
			}
			addr := b.AllocaAddr(vi.slot)
			if step == 1 {
				b.StoreB(addr, int64(i), v.v)
			} else {
				b.Store(addr, int64(i)*step, v.v)
			}
		}
		return nil
	}
	if fg.addrTaken[d.Name] {
		vi.kind = stAlloca
		vi.slot = b.F.NewAlloca(8)
		if d.Ty.Kind == tyPtr {
			b.F.MarkAllocaPtr(vi.slot)
		}
	} else {
		vi.kind = stVReg
		vi.vreg = b.F.NewVReg(irType(d.Ty))
	}
	scope[d.Name] = vi
	// Initialise (default zero).
	var init value
	if d.Init != nil {
		v, err := fg.expr(d.Init)
		if err != nil {
			return err
		}
		v, err = fg.convert(v, d.Ty, d.line, d.col)
		if err != nil {
			return err
		}
		init = v
	} else {
		if d.Ty.isFloat() {
			init = value{v: b.FConst(0), ty: d.Ty}
		} else {
			init = value{v: b.Const(0), ty: d.Ty}
		}
	}
	if vi.kind == stVReg {
		b.MovTo(vi.vreg, init.v)
	} else {
		addr := b.AllocaAddr(vi.slot)
		b.Store(addr, 0, init.v)
	}
	return nil
}
