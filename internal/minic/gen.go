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
//
// One arena serves the whole call: the prelude and every source are lexed
// into one token buffer and parsed into the same slabs, and the generator
// keeps its scopes and loop jumps on stacks it reuses from function to
// function. All of it is dropped on return; the module references none of
// it.
func CompileToIR(modName string, sources ...Source) (*ir.Module, error) {
	a := newArena()
	n := tokCap(Prelude)
	for _, src := range sources {
		n = max(n, tokCap(src.Code))
	}
	a.toks = make([]token, 0, n)
	if err := a.parse("<prelude>", Prelude); err != nil {
		return nil, err
	}
	for _, src := range sources {
		if err := a.parse(src.Name, src.Code); err != nil {
			return nil, err
		}
	}
	a.toks = nil
	prog := a.program()
	g := &genCtx{
		arena:    a,
		mod:      ir.NewModule(modName),
		prog:     prog,
		funcs:    make(map[string]*FuncDecl, len(prog.Funcs)),
		globals:  make(map[string]*varInfo, len(prog.Globals)),
		vars:     slab[varInfo]{chunk: varChunk},
		params:   slab[ir.Param]{chunk: irListChunk},
		argLists: slab[ir.VReg]{chunk: irListChunk},
	}
	return g.run()
}

// Chunk sizes for what the generator carves, from the 36 NPB builds of the
// toolchain benchmark: variables (129 to 190 locals, parameters and
// globals per build, 64 bytes each) and the parameter and argument lists
// the module keeps (60 to 84 parameters, 61 to 184 call arguments), so a
// build takes three chunks of variables and one or two of each list.
const (
	varChunk    = 64
	irListChunk = 128
)

type genCtx struct {
	*arena
	mod     *ir.Module
	prog    *Program
	funcs   map[string]*FuncDecl
	globals map[string]*varInfo
	strN    int
	scratch ir.Scratch // serves every function's builder in turn
	fg      funcGen    // the function being generated; its stacks are reused

	vars     slab[varInfo]
	params   slab[ir.Param] // the functions' parameter lists, which the module keeps
	argLists slab[ir.VReg]  // the calls' argument lists, which the module keeps
}

func errAt(line, col int32, format string, args ...interface{}) error {
	return &Error{File: "minic", Line: int(line), Col: int(col), Msg: fmt.Sprintf(format, args...)}
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
		vi := g.vars.new()
		*vi = varInfo{ty: d.Ty, isArray: d.ArrayLen >= 0, arrayLen: d.ArrayLen, kind: stGlobal, global: d.Name}
		g.globals[d.Name] = vi
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
		case cSub:
			return -iv, -fv, isF, nil
		case cTilde:
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
			case cAdd:
				return 0, lf + rf, true, nil
			case cSub:
				return 0, lf - rf, true, nil
			case cMul:
				return 0, lf * rf, true, nil
			case cDiv:
				return 0, lf / rf, true, nil
			}
		} else {
			switch e.Op {
			case cAdd:
				return li + ri, 0, false, nil
			case cSub:
				return li - ri, 0, false, nil
			case cMul:
				return li * ri, 0, false, nil
			case cDiv:
				if ri != 0 {
					return li / ri, 0, false, nil
				}
			case cMod:
				if ri != 0 {
					return li % ri, 0, false, nil
				}
			case cShl:
				return li << uint(ri&63), 0, false, nil
			case cShr:
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

// funcGen generates one function. The generator keeps one, so its stacks
// serve every function in turn.
type funcGen struct {
	g  *genCtx
	b  *ir.Builder
	fd *FuncDecl

	// vars is the scope stack, innermost binding last; scopes[i] is the
	// index in vars where scope i begins.
	vars   []binding
	scopes []int
	// addrTaken lists the names whose address the function takes.
	addrTaken []string

	// jumps records blocks that must branch to a loop's exit (break) or
	// continuation point (continue); loops[i] is the index in jumps where
	// loop i's entries begin.
	jumps []loopJump
	loops []int
}

// binding is one name in scope.
type binding struct {
	name string
	vi   *varInfo
}

// loopJump is a block that ends in a break (cont false) or a continue.
type loopJump struct {
	blk  int
	cont bool
}

// enterLoop opens a loop's jump list; exitLoop patches its jumps to their
// targets, breaks first, each kind in the order the jumps were made.
func (fg *funcGen) enterLoop() {
	fg.loops = append(fg.loops, len(fg.jumps))
}

func (fg *funcGen) exitLoop(breakTarget, contTarget int) {
	cur := fg.b.Block()
	n := len(fg.loops) - 1
	jumps := fg.jumps[fg.loops[n]:]
	for _, j := range jumps {
		if !j.cont {
			fg.b.SetBlock(j.blk)
			fg.b.Br(breakTarget)
		}
	}
	for _, j := range jumps {
		if j.cont {
			fg.b.SetBlock(j.blk)
			fg.b.Br(contTarget)
		}
	}
	fg.jumps = fg.jumps[:fg.loops[n]]
	fg.loops = fg.loops[:n]
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
	params := g.params.take(len(fd.Params))
	for i, p := range fd.Params {
		params[i] = ir.Param{Name: p.Name, Type: irType(p.Ty)}
	}
	fg := &g.fg
	fg.g, fg.fd = g, fd
	fg.b = g.scratch.NewFunc(fd.Name, irType(fd.Ret), params...)
	fg.vars, fg.scopes, fg.addrTaken = fg.vars[:0], fg.scopes[:0], fg.addrTaken[:0]
	fg.jumps, fg.loops = fg.jumps[:0], fg.loops[:0]
	fg.scanStmt(fd.Body)
	fg.push()
	// Bind parameters; address-taken ones are demoted to allocas.
	for i, p := range fd.Params {
		vi := g.vars.new()
		vi.ty, vi.arrayLen = p.Ty, -1
		if fg.isAddrTaken(p.Name) {
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
		fg.bind(p.Name, vi)
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

// scanStmt and scanExpr list the identifiers whose address is taken
// anywhere in the function, forcing them into stack slots.
func (fg *funcGen) scanStmt(s *Stmt) {
	if s == nil {
		return
	}
	fg.scanExpr(s.Expr)
	fg.scanExpr(s.Cond)
	fg.scanExpr(s.Post)
	for _, d := range s.Decl {
		fg.scanExpr(d.Init)
		for _, e := range d.InitList {
			fg.scanExpr(e)
		}
	}
	fg.scanStmt(s.Init)
	fg.scanStmt(s.Then)
	fg.scanStmt(s.Else)
	fg.scanStmt(s.Body)
	for _, c := range s.List {
		fg.scanStmt(c)
	}
}

func (fg *funcGen) scanExpr(e *Expr) {
	if e == nil {
		return
	}
	if e.Kind == eUnary && e.Op == cAnd && e.L != nil && e.L.Kind == eIdent && !fg.isAddrTaken(e.L.Text) {
		fg.addrTaken = append(fg.addrTaken, e.L.Text)
	}
	fg.scanExpr(e.L)
	fg.scanExpr(e.R)
	fg.scanExpr(e.C3)
	for _, a := range e.Args {
		fg.scanExpr(a)
	}
}

func (fg *funcGen) isAddrTaken(name string) bool {
	for _, n := range fg.addrTaken {
		if n == name {
			return true
		}
	}
	return false
}

// push opens a scope; pop closes the innermost.
func (fg *funcGen) push() { fg.scopes = append(fg.scopes, len(fg.vars)) }

func (fg *funcGen) pop() {
	n := len(fg.scopes) - 1
	fg.vars = fg.vars[:fg.scopes[n]]
	fg.scopes = fg.scopes[:n]
}

// bind adds name to the innermost scope.
func (fg *funcGen) bind(name string, vi *varInfo) {
	fg.vars = append(fg.vars, binding{name, vi})
}

// inScope reports whether the innermost scope binds name.
func (fg *funcGen) inScope(name string) bool {
	for _, v := range fg.vars[fg.scopes[len(fg.scopes)-1]:] {
		if v.name == name {
			return true
		}
	}
	return false
}

// lookup resolves name: the innermost binding first, then the globals.
func (fg *funcGen) lookup(name string) *varInfo {
	for i := len(fg.vars) - 1; i >= 0; i-- {
		if fg.vars[i].name == name {
			return fg.vars[i].vi
		}
	}
	return fg.g.globals[name]
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
		if len(fg.loops) == 0 {
			return errAt(s.line, s.col, "break outside loop")
		}
		fg.jumps = append(fg.jumps, loopJump{blk: b.Block()})
		b.NewBlock("postbreak")
		return nil
	case sContinue:
		if len(fg.loops) == 0 {
			return errAt(s.line, s.col, "continue outside loop")
		}
		fg.jumps = append(fg.jumps, loopJump{blk: b.Block(), cont: true})
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
	if fg.inScope(d.Name) {
		return errAt(d.line, d.col, "redeclaration of %s", d.Name)
	}
	vi := fg.g.vars.new()
	vi.ty, vi.arrayLen = d.Ty, d.ArrayLen
	if d.ArrayLen >= 0 {
		vi.isArray = true
		vi.kind = stAlloca
		vi.slot = b.F.NewAlloca(d.Ty.size() * d.ArrayLen)
		if d.Ty.Kind == tyPtr {
			b.F.MarkAllocaPtr(vi.slot)
		}
		fg.bind(d.Name, vi)
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
	if fg.isAddrTaken(d.Name) {
		vi.kind = stAlloca
		vi.slot = b.F.NewAlloca(8)
		if d.Ty.Kind == tyPtr {
			b.F.MarkAllocaPtr(vi.slot)
		}
	} else {
		vi.kind = stVReg
		vi.vreg = b.F.NewVReg(irType(d.Ty))
	}
	fg.bind(d.Name, vi)
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
