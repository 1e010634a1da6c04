package minic

import (
	"strconv"

	"heterodc/internal/ir"
)

// expr evaluates e as an rvalue.
func (fg *funcGen) expr(e *Expr) (value, error) {
	b := fg.b
	switch e.Kind {
	case eInt:
		return value{v: b.Const(e.Ival), ty: typeLong}, nil
	case eFloat:
		return value{v: b.FConst(e.Fval), ty: typeDouble}, nil
	case eStr:
		name := ".str." + strconv.Itoa(fg.g.strN)
		fg.g.strN++
		data := make([]byte, len(e.Text)+1)
		copy(data, e.Text)
		if err := fg.g.mod.AddGlobal(&ir.Global{
			Name: name, Size: int64(len(data)), Init: data, ReadOnly: true,
		}); err != nil {
			return value{}, err
		}
		return value{v: b.GlobalAddr(name, 0), ty: fg.g.ptrTo(typeChar)}, nil
	case eIdent:
		vi := fg.lookup(e.Text)
		if vi == nil {
			// A function name used as a value: a function pointer.
			if _, ok := fg.g.funcs[e.Text]; ok {
				return value{v: b.GlobalAddr(e.Text, 0), ty: fg.g.ptrTo(typeVoid)}, nil
			}
			return value{}, errAt(e.line, e.col, "undefined identifier %q", e.Text)
		}
		if vi.isArray {
			// Array decays to a pointer to its first element.
			return value{v: fg.baseAddr(vi), ty: fg.g.ptrTo(vi.ty)}, nil
		}
		lv := fg.varLvalue(vi)
		return fg.load(lv), nil
	case eUnary:
		return fg.unary(e)
	case ePreIncr, ePostIncr:
		return fg.incrDecr(e)
	case eBinary:
		return fg.binary(e)
	case eAssign:
		return fg.assign(e)
	case eCond:
		return fg.conditional(e)
	case eCall:
		return fg.call(e)
	case eIndex:
		lv, err := fg.lvalueOf(e)
		if err != nil {
			return value{}, err
		}
		return fg.load(lv), nil
	case eCast:
		v, err := fg.expr(e.L)
		if err != nil {
			return value{}, err
		}
		return fg.convert(v, e.CastTy, e.line, e.col)
	case eSizeof:
		return value{v: b.Const(e.CastTy.size()), ty: typeLong}, nil
	}
	return value{}, errAt(e.line, e.col, "unhandled expression kind %d", int(e.Kind))
}

// exprVoid evaluates e for side effects.
func (fg *funcGen) exprVoid(e *Expr) (value, error) {
	// Void calls must not demand a value.
	if e.Kind == eCall {
		return fg.callImpl(e, true)
	}
	return fg.expr(e)
}

// condValue evaluates e as a 0/1 integer condition.
func (fg *funcGen) condValue(e *Expr) (ir.VReg, error) {
	v, err := fg.expr(e)
	if err != nil {
		return ir.NoV, err
	}
	if v.ty.isFloat() {
		return fg.b.FCmp(ir.Ne, v.v, fg.b.FConst(0)), nil
	}
	return v.v, nil
}

// baseAddr returns the base address of an array or alloca'd variable.
func (fg *funcGen) baseAddr(vi *varInfo) ir.VReg {
	switch vi.kind {
	case stAlloca:
		return fg.b.AllocaAddr(vi.slot)
	case stGlobal:
		return fg.b.GlobalAddr(vi.global, 0)
	}
	panic("minic: baseAddr on register variable")
}

// varLvalue builds the lvalue for a scalar variable.
func (fg *funcGen) varLvalue(vi *varInfo) lvalue {
	if vi.kind == stVReg {
		return lvalue{isVReg: true, vreg: vi.vreg, ty: vi.ty}
	}
	return lvalue{addr: fg.baseAddr(vi), ty: vi.ty}
}

// lvalueOf resolves an assignable expression.
func (fg *funcGen) lvalueOf(e *Expr) (lvalue, error) {
	switch e.Kind {
	case eIdent:
		vi := fg.lookup(e.Text)
		if vi == nil {
			return lvalue{}, errAt(e.line, e.col, "undefined identifier %q", e.Text)
		}
		if vi.isArray {
			return lvalue{}, errAt(e.line, e.col, "cannot assign to array %q", e.Text)
		}
		return fg.varLvalue(vi), nil
	case eUnary:
		if e.Op != cMul {
			break
		}
		p, err := fg.expr(e.L)
		if err != nil {
			return lvalue{}, err
		}
		if p.ty.Kind != tyPtr {
			return lvalue{}, errAt(e.line, e.col, "dereference of non-pointer (%s)", p.ty)
		}
		return lvalue{addr: p.v, ty: p.ty.Elem}, nil
	case eIndex:
		base, err := fg.expr(e.L)
		if err != nil {
			return lvalue{}, err
		}
		if base.ty.Kind != tyPtr {
			return lvalue{}, errAt(e.line, e.col, "indexing non-pointer (%s)", base.ty)
		}
		idx, err := fg.expr(e.R)
		if err != nil {
			return lvalue{}, err
		}
		idx, err = fg.convert(idx, typeLong, e.line, e.col)
		if err != nil {
			return lvalue{}, err
		}
		elem := base.ty.Elem
		var addr ir.VReg
		if elem.size() == 1 {
			addr = fg.b.PtrAdd(base.v, idx.v)
		} else {
			off := fg.b.BinImm(ir.Mul, idx.v, elem.size())
			addr = fg.b.PtrAdd(base.v, off)
		}
		return lvalue{addr: addr, ty: elem}, nil
	}
	return lvalue{}, errAt(e.line, e.col, "expression is not assignable")
}

// load reads an lvalue.
func (fg *funcGen) load(lv lvalue) value {
	b := fg.b
	if lv.isVReg {
		return value{v: b.Mov(lv.vreg), ty: lv.ty}
	}
	switch {
	case lv.ty.Kind == tyChar:
		return value{v: b.LoadB(lv.addr, 0), ty: typeLong}
	case lv.ty.isFloat():
		return value{v: b.Load(ir.F64, lv.addr, 0), ty: lv.ty}
	case lv.ty.Kind == tyPtr:
		return value{v: b.Load(ir.Ptr, lv.addr, 0), ty: lv.ty}
	default:
		return value{v: b.Load(ir.I64, lv.addr, 0), ty: lv.ty}
	}
}

// store writes v (already converted to lv.ty) into lv.
func (fg *funcGen) store(lv lvalue, v value) {
	b := fg.b
	if lv.isVReg {
		b.MovTo(lv.vreg, v.v)
		return
	}
	if lv.ty.Kind == tyChar {
		b.StoreB(lv.addr, 0, v.v)
		return
	}
	b.Store(lv.addr, 0, v.v)
}

// convert coerces v to target using C's implicit conversion rules.
func (fg *funcGen) convert(v value, target *Ty, line, col int32) (value, error) {
	b := fg.b
	if target.Kind == tyVoid {
		return v, nil
	}
	src, dst := v.ty, target
	switch {
	case src.isFloat() && dst.isFloat():
		return value{v: v.v, ty: dst}, nil
	case src.isFloat() && (dst.isInt() || dst.Kind == tyPtr):
		return value{v: b.F2I(v.v), ty: dst}, nil
	case (src.isInt() || src.Kind == tyPtr) && dst.isFloat():
		return value{v: b.I2F(v.v), ty: dst}, nil
	default:
		// int/char/pointer interchange: representation is identical. The
		// vreg's IR type matters for stackmap pointer fixup: re-register a
		// pointer-typed copy when converting int -> pointer.
		if dst.Kind == tyPtr && fg.b.F.TypeOf(v.v) != ir.Ptr {
			d := fg.b.F.NewVReg(ir.Ptr)
			b.MovTo(d, v.v)
			return value{v: d, ty: dst}, nil
		}
		return value{v: v.v, ty: dst}, nil
	}
}

// usualArith applies C's usual arithmetic conversions to a pair.
func (fg *funcGen) usualArith(l, r value, line, col int32) (value, value, *Ty, error) {
	if l.ty.isFloat() || r.ty.isFloat() {
		lc, err := fg.convert(l, typeDouble, line, col)
		if err != nil {
			return l, r, nil, err
		}
		rc, err := fg.convert(r, typeDouble, line, col)
		if err != nil {
			return l, r, nil, err
		}
		return lc, rc, typeDouble, nil
	}
	return l, r, typeLong, nil
}

func (fg *funcGen) unary(e *Expr) (value, error) {
	b := fg.b
	switch e.Op {
	case cSub:
		v, err := fg.expr(e.L)
		if err != nil {
			return value{}, err
		}
		if v.ty.isFloat() {
			return value{v: b.FNeg(v.v), ty: typeDouble}, nil
		}
		return value{v: b.Bin(ir.Sub, b.Const(0), v.v), ty: typeLong}, nil
	case cNot:
		c, err := fg.condValue(e.L)
		if err != nil {
			return value{}, err
		}
		return value{v: b.Cmp(ir.Eq, c, b.Const(0)), ty: typeLong}, nil
	case cTilde:
		v, err := fg.expr(e.L)
		if err != nil {
			return value{}, err
		}
		if v.ty.isFloat() {
			return value{}, errAt(e.line, e.col, "~ on double")
		}
		return value{v: b.BinImm(ir.Xor, v.v, -1), ty: typeLong}, nil
	case cMul:
		lv, err := fg.lvalueOf(e)
		if err != nil {
			return value{}, err
		}
		return fg.load(lv), nil
	case cAnd:
		switch e.L.Kind {
		case eIdent:
			vi := fg.lookup(e.L.Text)
			if vi == nil {
				return value{}, errAt(e.line, e.col, "undefined identifier %q", e.L.Text)
			}
			if vi.isArray {
				return value{v: fg.baseAddr(vi), ty: fg.g.ptrTo(vi.ty)}, nil
			}
			if vi.kind == stVReg {
				return value{}, errAt(e.line, e.col, "internal: address-taken variable %q not demoted", e.L.Text)
			}
			return value{v: fg.baseAddr(vi), ty: fg.g.ptrTo(vi.ty)}, nil
		case eIndex, eUnary:
			lv, err := fg.lvalueOf(e.L)
			if err != nil {
				return value{}, err
			}
			if lv.isVReg {
				return value{}, errAt(e.line, e.col, "cannot take address of register variable")
			}
			return value{v: lv.addr, ty: fg.g.ptrTo(lv.ty)}, nil
		}
		return value{}, errAt(e.line, e.col, "cannot take address of this expression")
	}
	return value{}, errAt(e.line, e.col, "unhandled unary %q", e.Op)
}

func (fg *funcGen) incrDecr(e *Expr) (value, error) {
	b := fg.b
	lv, err := fg.lvalueOf(e.L)
	if err != nil {
		return value{}, err
	}
	old := fg.load(lv)
	var step int64 = 1
	if lv.ty.Kind == tyPtr {
		step = lv.ty.Elem.size()
	}
	var nv value
	if lv.ty.isFloat() {
		one := b.FConst(1)
		op := ir.FAdd
		if e.Op == cDec {
			op = ir.FSub
		}
		nv = value{v: b.FBin(op, old.v, one), ty: lv.ty}
	} else {
		d := step
		if e.Op == cDec {
			d = -step
		}
		res := b.BinImm(ir.Add, old.v, d)
		nv = value{v: res, ty: lv.ty}
	}
	cv, err := fg.convert(nv, lv.ty, e.line, e.col)
	if err != nil {
		return value{}, err
	}
	fg.store(lv, cv)
	if e.Kind == ePostIncr {
		return old, nil
	}
	return cv, nil
}

var irBinOps = map[code]ir.BinOp{
	cAdd: ir.Add, cSub: ir.Sub, cMul: ir.Mul, cDiv: ir.Div, cMod: ir.Rem,
	cAnd: ir.And, cOr: ir.Or, cXor: ir.Xor, cShl: ir.Shl, cShr: ir.Shr,
}

var irFBinOps = map[code]ir.FBinOp{
	cAdd: ir.FAdd, cSub: ir.FSub, cMul: ir.FMul, cDiv: ir.FDiv,
}

var irCmpOps = map[code]ir.CmpOp{
	cEq: ir.Eq, cNe: ir.Ne, cLt: ir.Lt, cLe: ir.Le, cGt: ir.Gt, cGe: ir.Ge,
}

// compoundOp[c] is the binary operator compound assignment c applies.
var compoundOp = [numCodes]code{
	cAddAssign: cAdd, cSubAssign: cSub, cMulAssign: cMul, cDivAssign: cDiv, cModAssign: cMod,
	cAndAssign: cAnd, cOrAssign: cOr, cXorAssign: cXor, cShlAssign: cShl, cShrAssign: cShr,
}

func (fg *funcGen) binary(e *Expr) (value, error) {
	b := fg.b
	// Short-circuit logicals.
	if e.Op == cAndAnd || e.Op == cOrOr {
		res := b.F.NewVReg(ir.I64)
		lc, err := fg.condValue(e.L)
		if err != nil {
			return value{}, err
		}
		lBlk := b.Block()
		rhsBlk := b.NewBlock("sc.rhs")
		rc, err := fg.condValue(e.R)
		if err != nil {
			return value{}, err
		}
		// Normalise to 0/1.
		b.MovTo(res, b.Cmp(ir.Ne, rc, b.Const(0)))
		rhsEnd := b.Block()
		shortBlk := b.NewBlock("sc.short")
		if e.Op == cAndAnd {
			b.ConstTo(res, 0)
		} else {
			b.ConstTo(res, 1)
		}
		shortEnd := b.Block()
		join := b.NewBlock("sc.end")
		b.SetBlock(lBlk)
		if e.Op == cAndAnd {
			b.CondBr(lc, rhsBlk, shortBlk)
		} else {
			b.CondBr(lc, shortBlk, rhsBlk)
		}
		b.SetBlock(rhsEnd)
		b.Br(join)
		b.SetBlock(shortEnd)
		b.Br(join)
		b.SetBlock(join)
		return value{v: res, ty: typeLong}, nil
	}

	l, err := fg.expr(e.L)
	if err != nil {
		return value{}, err
	}
	r, err := fg.expr(e.R)
	if err != nil {
		return value{}, err
	}

	// Pointer arithmetic.
	if l.ty.Kind == tyPtr || r.ty.Kind == tyPtr {
		switch e.Op {
		case cAdd, cSub:
			if l.ty.Kind == tyPtr && r.ty.Kind == tyPtr {
				if e.Op != cSub {
					return value{}, errAt(e.line, e.col, "pointer + pointer")
				}
				diff := b.Bin(ir.Sub, l.v, r.v)
				sz := l.ty.Elem.size()
				if sz > 1 {
					diff = b.BinImm(ir.Div, diff, sz)
				}
				return value{v: diff, ty: typeLong}, nil
			}
			p, i := l, r
			if r.ty.Kind == tyPtr {
				if e.Op == cSub {
					return value{}, errAt(e.line, e.col, "int - pointer")
				}
				p, i = r, l
			}
			ic, err := fg.convert(i, typeLong, e.line, e.col)
			if err != nil {
				return value{}, err
			}
			off := ic.v
			if sz := p.ty.Elem.size(); sz > 1 {
				off = b.BinImm(ir.Mul, off, sz)
			}
			if e.Op == cSub {
				off = b.Bin(ir.Sub, b.Const(0), off)
			}
			return value{v: b.PtrAdd(p.v, off), ty: p.ty}, nil
		case cEq, cNe, cLt, cLe, cGt, cGe:
			return value{v: b.Cmp(irCmpOps[e.Op], l.v, r.v), ty: typeLong}, nil
		default:
			return value{}, errAt(e.line, e.col, "invalid pointer operation %q", e.Op)
		}
	}

	lc, rc, ty, err := fg.usualArith(l, r, e.line, e.col)
	if err != nil {
		return value{}, err
	}
	if cmp, ok := irCmpOps[e.Op]; ok {
		if ty.isFloat() {
			return value{v: b.FCmp(cmp, lc.v, rc.v), ty: typeLong}, nil
		}
		return value{v: b.Cmp(cmp, lc.v, rc.v), ty: typeLong}, nil
	}
	if ty.isFloat() {
		op, ok := irFBinOps[e.Op]
		if !ok {
			return value{}, errAt(e.line, e.col, "operator %q on double", e.Op)
		}
		return value{v: b.FBin(op, lc.v, rc.v), ty: typeDouble}, nil
	}
	op, ok := irBinOps[e.Op]
	if !ok {
		return value{}, errAt(e.line, e.col, "unhandled operator %q", e.Op)
	}
	return value{v: b.Bin(op, lc.v, rc.v), ty: typeLong}, nil
}

func (fg *funcGen) assign(e *Expr) (value, error) {
	lv, err := fg.lvalueOf(e.L)
	if err != nil {
		return value{}, err
	}
	var rhs value
	if e.Op == cAssign {
		rhs, err = fg.expr(e.R)
		if err != nil {
			return value{}, err
		}
	} else {
		// Compound assignment: synthesise lhs <op> rhs on the loaded value.
		op := compoundOp[e.Op]
		cur := fg.load(lv)
		r, err := fg.expr(e.R)
		if err != nil {
			return value{}, err
		}
		rhs, err = fg.applyBin(op, cur, r, e.line, e.col)
		if err != nil {
			return value{}, err
		}
	}
	cv, err := fg.convert(rhs, lv.ty, e.line, e.col)
	if err != nil {
		return value{}, err
	}
	fg.store(lv, cv)
	return cv, nil
}

// applyBin applies a binary operator to two evaluated values (used by
// compound assignment).
func (fg *funcGen) applyBin(op code, l, r value, line, col int32) (value, error) {
	b := fg.b
	if l.ty.Kind == tyPtr && (op == cAdd || op == cSub) {
		ic, err := fg.convert(r, typeLong, line, col)
		if err != nil {
			return value{}, err
		}
		off := ic.v
		if sz := l.ty.Elem.size(); sz > 1 {
			off = b.BinImm(ir.Mul, off, sz)
		}
		if op == cSub {
			off = b.Bin(ir.Sub, b.Const(0), off)
		}
		return value{v: b.PtrAdd(l.v, off), ty: l.ty}, nil
	}
	lc, rc, ty, err := fg.usualArith(l, r, line, col)
	if err != nil {
		return value{}, err
	}
	if ty.isFloat() {
		fop, ok := irFBinOps[op]
		if !ok {
			return value{}, errAt(line, col, "operator %q= on double", op)
		}
		return value{v: b.FBin(fop, lc.v, rc.v), ty: typeDouble}, nil
	}
	iop, ok := irBinOps[op]
	if !ok {
		return value{}, errAt(line, col, "unhandled operator %q=", op)
	}
	return value{v: b.Bin(iop, lc.v, rc.v), ty: typeLong}, nil
}

func (fg *funcGen) conditional(e *Expr) (value, error) {
	b := fg.b
	cond, err := fg.condValue(e.L)
	if err != nil {
		return value{}, err
	}
	condBlk := b.Block()

	aBlk := b.NewBlock("cond.a")
	av, err := fg.expr(e.R)
	if err != nil {
		return value{}, err
	}
	aEnd := b.Block()

	bBlk := b.NewBlock("cond.b")
	bv, err := fg.expr(e.C3)
	if err != nil {
		return value{}, err
	}
	bEnd := b.Block()

	// Unify types.
	ty := typeLong
	switch {
	case av.ty.isFloat() || bv.ty.isFloat():
		ty = typeDouble
	case av.ty.Kind == tyPtr:
		ty = av.ty
	case bv.ty.Kind == tyPtr:
		ty = bv.ty
	}
	res := b.F.NewVReg(irType(ty))

	b.SetBlock(aEnd)
	ac, err := fg.convert(av, ty, e.line, e.col)
	if err != nil {
		return value{}, err
	}
	b.MovTo(res, ac.v)
	aEnd2 := b.Block()

	b.SetBlock(bEnd)
	bc, err := fg.convert(bv, ty, e.line, e.col)
	if err != nil {
		return value{}, err
	}
	b.MovTo(res, bc.v)
	bEnd2 := b.Block()

	join := b.NewBlock("cond.end")
	b.SetBlock(condBlk)
	b.CondBr(cond, aBlk, bBlk)
	b.SetBlock(aEnd2)
	b.Br(join)
	b.SetBlock(bEnd2)
	b.Br(join)
	b.SetBlock(join)
	return value{v: res, ty: ty}, nil
}

func (fg *funcGen) call(e *Expr) (value, error) {
	return fg.callImpl(e, false)
}

func (fg *funcGen) callImpl(e *Expr, voidOK bool) (value, error) {
	b := fg.b
	// Builtins.
	switch e.Text {
	case "__syscall":
		if len(e.Args) < 1 || e.Args[0].Kind != eInt {
			return value{}, errAt(e.line, e.col, "__syscall needs a literal syscall number")
		}
		args := fg.g.argLists.take(len(e.Args) - 1)
		for i, a := range e.Args[1:] {
			v, err := fg.expr(a)
			if err != nil {
				return value{}, err
			}
			if v.ty.isFloat() {
				return value{}, errAt(e.line, e.col, "__syscall arguments must be integral")
			}
			args[i] = v.v
		}
		return value{v: b.Syscall(e.Args[0].Ival, args...), ty: typeLong}, nil
	case "__atomic_add", "__atomic_cas":
		p, err := fg.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		if p.ty.Kind != tyPtr {
			return value{}, errAt(e.line, e.col, "%s needs a pointer", e.Text)
		}
		if e.Text == "__atomic_add" {
			if len(e.Args) != 2 {
				return value{}, errAt(e.line, e.col, "__atomic_add(p, delta)")
			}
			d, err := fg.expr(e.Args[1])
			if err != nil {
				return value{}, err
			}
			return value{v: b.AtomicAdd(p.v, 0, d.v), ty: typeLong}, nil
		}
		if len(e.Args) != 3 {
			return value{}, errAt(e.line, e.col, "__atomic_cas(p, old, new)")
		}
		o, err := fg.expr(e.Args[1])
		if err != nil {
			return value{}, err
		}
		n, err := fg.expr(e.Args[2])
		if err != nil {
			return value{}, err
		}
		return value{v: b.AtomicCAS(p.v, 0, o.v, n.v), ty: typeLong}, nil
	case "__icall":
		if len(e.Args) != 2 {
			return value{}, errAt(e.line, e.col, "__icall(fn, arg)")
		}
		fp, err := fg.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		a, err := fg.expr(e.Args[1])
		if err != nil {
			return value{}, err
		}
		ac, err := fg.convert(a, typeLong, e.line, e.col)
		if err != nil {
			return value{}, err
		}
		return value{v: b.CallInd(ir.I64, fp.v, ac.v), ty: typeLong}, nil
	case "sqrt":
		if len(e.Args) != 1 {
			return value{}, errAt(e.line, e.col, "sqrt(x)")
		}
		x, err := fg.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		xc, err := fg.convert(x, typeDouble, e.line, e.col)
		if err != nil {
			return value{}, err
		}
		return value{v: b.FSqrt(xc.v), ty: typeDouble}, nil
	}

	fd, ok := fg.g.funcs[e.Text]
	if !ok {
		return value{}, errAt(e.line, e.col, "call to undefined function %q", e.Text)
	}
	if len(e.Args) != len(fd.Params) {
		return value{}, errAt(e.line, e.col, "%s takes %d args, got %d", e.Text, len(fd.Params), len(e.Args))
	}
	args := fg.g.argLists.take(len(e.Args))
	for i, a := range e.Args {
		v, err := fg.expr(a)
		if err != nil {
			return value{}, err
		}
		cv, err := fg.convert(v, fd.Params[i].Ty, a.line, a.col)
		if err != nil {
			return value{}, err
		}
		args[i] = cv.v
	}
	ret := b.Call(irType(fd.Ret), e.Text, args...)
	if fd.Ret.Kind == tyVoid {
		if !voidOK {
			return value{}, errAt(e.line, e.col, "void value of %s used", e.Text)
		}
		return value{v: ir.NoV, ty: typeVoid}, nil
	}
	return value{v: ret, ty: fd.Ret}, nil
}
