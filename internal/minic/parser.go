package minic

import "fmt"

// --- Types -----------------------------------------------------------------

type tyKind uint8

const (
	tyLong tyKind = iota
	tyDouble
	tyChar
	tyVoid
	tyPtr
)

// Ty is a mini-C type. Within one build, one *Ty stands for each pointer
// type (arena.ptrTo).
type Ty struct {
	Kind tyKind
	Elem *Ty // pointee for tyPtr
	ptr  *Ty // the pointer type to this one, once made
}

var (
	typeLong   = &Ty{Kind: tyLong}
	typeDouble = &Ty{Kind: tyDouble}
	typeChar   = &Ty{Kind: tyChar}
	typeVoid   = &Ty{Kind: tyVoid}
)

func (t *Ty) String() string {
	switch t.Kind {
	case tyLong:
		return "long"
	case tyDouble:
		return "double"
	case tyChar:
		return "char"
	case tyVoid:
		return "void"
	case tyPtr:
		return t.Elem.String() + "*"
	}
	return "?"
}

// size returns the byte size of a value of type t.
func (t *Ty) size() int64 {
	if t.Kind == tyChar {
		return 1
	}
	return 8
}

func (t *Ty) isNum() bool   { return t.Kind == tyLong || t.Kind == tyDouble || t.Kind == tyChar }
func (t *Ty) isInt() bool   { return t.Kind == tyLong || t.Kind == tyChar }
func (t *Ty) isFloat() bool { return t.Kind == tyDouble }

// --- AST ---------------------------------------------------------------------

type exprKind uint8

const (
	eInt exprKind = iota
	eFloat
	eStr
	eIdent
	eUnary   // Op in - ! ~ * &
	ePreIncr // Op in ++ --
	ePostIncr
	eBinary // arithmetic/logical/comparison
	eAssign // Op in = += -= *= /= %= &= |= ^= <<= >>=
	eCond   // L ? R : C3
	eCall   // Text(Args) or builtin
	eIndex  // L[R]
	eCast   // (CastTy)L
	eSizeof
)

// Expr is an expression node.
type Expr struct {
	L, R   *Expr
	C3     *Expr
	Ival   int64
	Fval   float64
	Text   string // eIdent, eCall: the name; eStr: the literal's bytes
	Args   []*Expr
	CastTy *Ty

	line, col int32
	Kind      exprKind
	Op        code
}

type stmtKind uint8

const (
	sExpr stmtKind = iota
	sDecl
	sIf
	sWhile
	sDoWhile
	sFor
	sReturn
	sBreak
	sContinue
	sBlock
	sEmpty
)

// Stmt is a statement node.
type Stmt struct {
	Expr *Expr   // sExpr, sReturn (may be nil)
	Decl []*Decl // sDecl

	Cond       *Expr
	Then, Else *Stmt   // sIf
	Body       *Stmt   // loops
	Init       *Stmt   // sFor
	Post       *Expr   // sFor
	List       []*Stmt // sBlock

	line, col int32
	Kind      stmtKind
}

// Decl is one variable declarator.
type Decl struct {
	Name     string
	Ty       *Ty
	ArrayLen int64 // -1 when not an array
	Init     *Expr
	InitList []*Expr // array initialiser

	line, col int32
}

// Param is a function parameter.
type Param struct {
	Name string
	Ty   *Ty
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    *Ty
	Params []Param
	Body   *Stmt

	line, col int32
}

// Program is one parsed translation unit.
type Program struct {
	Globals []*Decl
	Funcs   []*FuncDecl
}

// --- Parser -------------------------------------------------------------------

// parser parses one source's tokens into its arena.
type parser struct {
	*arena
	file string
	toks []token
	pos  int
}

// Parse parses mini-C source.
func Parse(file, src string) (*Program, error) {
	a := newArena()
	a.toks = make([]token, 0, tokCap(src))
	if err := a.parse(file, src); err != nil {
		return nil, err
	}
	return a.program(), nil
}

func (p *parser) cur() *token { return &p.toks[p.pos] }

// next consumes the current token and returns it.
func (p *parser) next() *token { t := &p.toks[p.pos]; p.pos++; return t }

// is reports whether the current token is the punctuator or keyword c.
func (p *parser) is(c code) bool { return p.toks[p.pos].code == c }

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return &Error{File: p.file, Line: int(t.line), Col: int(t.col), Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) accept(c code) bool {
	if p.is(c) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(c code) error {
	if p.accept(c) {
		return nil
	}
	return p.errf("expected %q, got %q", c, p.cur().spelling())
}

// newExpr returns an expression node of kind k at t.
func (p *parser) newExpr(k exprKind, t *token) *Expr {
	e := p.exprs.new()
	e.Kind, e.line, e.col = k, t.line, t.col
	return e
}

// newStmt returns a statement node of kind k at t.
func (p *parser) newStmt(k stmtKind, t *token) *Stmt {
	s := p.stmts.new()
	s.Kind, s.line, s.col = k, t.line, t.col
	return s
}

// typeStart reports whether the current token begins a type.
func (p *parser) typeStart() bool {
	switch p.cur().code {
	case kLong, kDouble, kChar, kVoid, kStatic, kConst:
		return true
	}
	return false
}

// parseType parses a base type plus pointer stars.
func (p *parser) parseType() (*Ty, error) {
	for p.accept(kStatic) || p.accept(kConst) {
	}
	var base *Ty
	switch p.cur().code {
	case kLong:
		base = typeLong
	case kDouble:
		base = typeDouble
	case kChar:
		base = typeChar
	case kVoid:
		base = typeVoid
	default:
		return nil, p.errf("expected type, got %q", p.cur().spelling())
	}
	p.pos++
	for p.accept(cMul) {
		base = p.ptrTo(base)
	}
	return base, nil
}

// program parses the source's globals and functions onto the arena's
// stacks.
func (p *parser) program() error {
	for p.cur().kind != tEOF {
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		nameTok := p.cur()
		if nameTok.kind != tIdent {
			return p.errf("expected name after type")
		}
		p.pos++
		if p.is(cLParen) {
			fd, err := p.funcRest(ty, nameTok)
			if err != nil {
				return err
			}
			p.funcStack = append(p.funcStack, fd)
			continue
		}
		if err := p.declRest(ty, nameTok); err != nil {
			return err
		}
	}
	return nil
}

// declRest parses declarators after "type name" up to the semicolon,
// pushing them on declStack.
func (p *parser) declRest(ty *Ty, nameTok *token) error {
	d, err := p.declarator(ty, nameTok)
	if err != nil {
		return err
	}
	p.declStack = append(p.declStack, d)
	for p.accept(cComma) {
		t := ty
		for p.accept(cMul) {
			t = p.ptrTo(t)
		}
		nt := p.cur()
		if nt.kind != tIdent {
			return p.errf("expected name in declaration")
		}
		p.pos++
		d, err := p.declarator(t, nt)
		if err != nil {
			return err
		}
		p.declStack = append(p.declStack, d)
	}
	return p.expect(cSemi)
}

// declStmt parses a declaration after its type into an sDecl statement at
// t; what is the diagnostic for a missing name.
func (p *parser) declStmt(ty *Ty, t *token, what string) (*Stmt, error) {
	nt := p.cur()
	if nt.kind != tIdent {
		return nil, p.errf("%s", what)
	}
	p.pos++
	mark := len(p.declStack)
	if err := p.declRest(ty, nt); err != nil {
		p.declStack = p.declStack[:mark]
		return nil, err
	}
	s := p.newStmt(sDecl, t)
	s.Decl = p.declLists.clone(p.declStack[mark:])
	p.declStack = p.declStack[:mark]
	return s, nil
}

func (p *parser) declarator(ty *Ty, nameTok *token) (*Decl, error) {
	d := p.decls.new()
	d.Name, d.Ty, d.ArrayLen, d.line, d.col = nameTok.text, ty, -1, nameTok.line, nameTok.col
	if p.accept(cLBrack) {
		t := p.cur()
		if t.kind != tInt {
			return nil, p.errf("array length must be an integer literal")
		}
		p.pos++
		d.ArrayLen = t.ival
		if err := p.expect(cRBrack); err != nil {
			return nil, err
		}
	}
	if p.accept(cAssign) {
		if p.accept(cLBrace) {
			mark := len(p.exprStack)
			for !p.is(cRBrace) {
				e, err := p.assignExpr()
				if err != nil {
					p.exprStack = p.exprStack[:mark]
					return nil, err
				}
				p.exprStack = append(p.exprStack, e)
				if !p.accept(cComma) {
					break
				}
			}
			d.InitList = p.exprLists.clone(p.exprStack[mark:])
			p.exprStack = p.exprStack[:mark]
			if err := p.expect(cRBrace); err != nil {
				return nil, err
			}
		} else {
			e, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
	}
	return d, nil
}

func (p *parser) funcRest(ret *Ty, nameTok *token) (*FuncDecl, error) {
	fd := p.fdecl.new()
	fd.Name, fd.Ret, fd.line, fd.col = nameTok.text, ret, nameTok.line, nameTok.col
	if err := p.expect(cLParen); err != nil {
		return nil, err
	}
	if p.accept(kVoid) && p.is(cRParen) {
		// (void) parameter list
	} else {
		p.paramStack = p.paramStack[:0]
		for !p.is(cRParen) {
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			nt := p.cur()
			if nt.kind != tIdent {
				return nil, p.errf("expected parameter name")
			}
			p.pos++
			p.paramStack = append(p.paramStack, Param{Name: nt.text, Ty: ty})
			if !p.accept(cComma) {
				break
			}
		}
		fd.Params = p.paramLists.clone(p.paramStack)
	}
	if err := p.expect(cRParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *parser) block() (*Stmt, error) {
	t := p.cur()
	if err := p.expect(cLBrace); err != nil {
		return nil, err
	}
	mark := len(p.stmtStack)
	for !p.is(cRBrace) {
		if p.cur().kind == tEOF {
			p.stmtStack = p.stmtStack[:mark]
			return nil, p.errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			p.stmtStack = p.stmtStack[:mark]
			return nil, err
		}
		p.stmtStack = append(p.stmtStack, s)
	}
	p.pos++ // }
	blk := p.newStmt(sBlock, t)
	blk.List = p.stmtLists.clone(p.stmtStack[mark:])
	p.stmtStack = p.stmtStack[:mark]
	return blk, nil
}

func (p *parser) stmt() (*Stmt, error) {
	t := p.cur()
	switch {
	case p.is(cLBrace):
		return p.block()
	case p.is(cSemi):
		p.pos++
		return p.newStmt(sEmpty, t), nil
	case p.typeStart():
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return p.declStmt(ty, t, "expected name in declaration")
	case p.accept(kIf):
		if err := p.expect(cLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s := p.newStmt(sIf, t)
		s.Cond, s.Then = cond, then
		if p.accept(kElse) {
			els, err := p.stmt()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
		return s, nil
	case p.accept(kWhile):
		if err := p.expect(cLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s := p.newStmt(sWhile, t)
		s.Cond, s.Body = cond, body
		return s, nil
	case p.accept(kDo):
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(kWhile); err != nil {
			return nil, err
		}
		if err := p.expect(cLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		if err := p.expect(cSemi); err != nil {
			return nil, err
		}
		s := p.newStmt(sDoWhile, t)
		s.Cond, s.Body = cond, body
		return s, nil
	case p.accept(kFor):
		if err := p.expect(cLParen); err != nil {
			return nil, err
		}
		s := p.newStmt(sFor, t)
		if !p.is(cSemi) {
			if p.typeStart() {
				ty, err := p.parseType()
				if err != nil {
					return nil, err
				}
				init, err := p.declStmt(ty, t, "expected name in for-init declaration") // consumes ';'
				if err != nil {
					return nil, err
				}
				init.line, init.col = 0, 0
				s.Init = init
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				init := p.stmts.new()
				init.Kind, init.Expr = sExpr, e
				s.Init = init
				if err := p.expect(cSemi); err != nil {
					return nil, err
				}
			}
		} else {
			p.pos++
		}
		if !p.is(cSemi) {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Cond = cond
		}
		if err := p.expect(cSemi); err != nil {
			return nil, err
		}
		if !p.is(cRParen) {
			post, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Post = post
		}
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Body = body
		return s, nil
	case p.accept(kReturn):
		s := p.newStmt(sReturn, t)
		if !p.is(cSemi) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Expr = e
		}
		if err := p.expect(cSemi); err != nil {
			return nil, err
		}
		return s, nil
	case p.accept(kBreak):
		if err := p.expect(cSemi); err != nil {
			return nil, err
		}
		return p.newStmt(sBreak, t), nil
	case p.accept(kContinue):
		if err := p.expect(cSemi); err != nil {
			return nil, err
		}
		return p.newStmt(sContinue, t), nil
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cSemi); err != nil {
			return nil, err
		}
		s := p.newStmt(sExpr, t)
		s.Expr = e
		return s, nil
	}
}

// --- Expressions (precedence climbing) ---

func (p *parser) expr() (*Expr, error) { return p.assignExpr() }

// isAssignOp marks the assignment operators.
var isAssignOp = [numCodes]bool{
	cAssign: true, cAddAssign: true, cSubAssign: true, cMulAssign: true, cDivAssign: true,
	cModAssign: true, cAndAssign: true, cOrAssign: true, cXorAssign: true,
	cShlAssign: true, cShrAssign: true,
}

func (p *parser) assignExpr() (*Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if isAssignOp[p.cur().code] {
		t := p.next()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		e := p.newExpr(eAssign, t)
		e.Op, e.L, e.R = t.code, lhs, rhs
		return e, nil
	}
	return lhs, nil
}

func (p *parser) condExpr() (*Expr, error) {
	c, err := p.binExpr(1)
	if err != nil {
		return nil, err
	}
	if p.is(cQuest) {
		t := p.next()
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cColon); err != nil {
			return nil, err
		}
		b, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		e := p.newExpr(eCond, t)
		e.L, e.R, e.C3 = c, a, b
		return e, nil
	}
	return c, nil
}

// binPrec[c] is binary operator c's precedence level, lowest 1; 0 for a
// code that is no binary operator.
var binPrec = [numCodes]uint8{
	cOrOr:   1,
	cAndAnd: 2,
	cOr:     3,
	cXor:    4,
	cAnd:    5,
	cEq:     6, cNe: 6,
	cLt: 7, cLe: 7, cGt: 7, cGe: 7,
	cShl: 8, cShr: 8,
	cAdd: 9, cSub: 9,
	cMul: 10, cDiv: 10, cMod: 10,
}

// binExpr parses a chain of binary operators of level min and above; each
// level associates to the left.
func (p *parser) binExpr(min uint8) (*Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		level := binPrec[p.cur().code]
		if level < min || level == 0 {
			return lhs, nil
		}
		t := p.next()
		rhs, err := p.binExpr(level + 1)
		if err != nil {
			return nil, err
		}
		e := p.newExpr(eBinary, t)
		e.Op, e.L, e.R = t.code, lhs, rhs
		lhs = e
	}
}

func (p *parser) unaryExpr() (*Expr, error) {
	t := p.cur()
	switch t.code {
	case cSub, cNot, cTilde, cMul, cAnd:
		p.pos++
		l, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		e := p.newExpr(eUnary, t)
		e.Op, e.L = t.code, l
		return e, nil
	case cInc, cDec:
		p.pos++
		l, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		e := p.newExpr(ePreIncr, t)
		e.Op, e.L = t.code, l
		return e, nil
	case cLParen:
		// Cast: "(" type ")" unary
		if p.pos+1 < len(p.toks) {
			switch p.toks[p.pos+1].code {
			case kLong, kDouble, kChar, kVoid:
				p.pos++ // (
				ty, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expect(cRParen); err != nil {
					return nil, err
				}
				l, err := p.unaryExpr()
				if err != nil {
					return nil, err
				}
				e := p.newExpr(eCast, t)
				e.CastTy, e.L = ty, l
				return e, nil
			}
		}
	case kSizeof:
		p.pos++
		if err := p.expect(cLParen); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		e := p.newExpr(eSizeof, t)
		e.CastTy = ty
		return e, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (*Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch t := p.cur(); t.code {
		case cLBrack:
			p.pos++
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(cRBrack); err != nil {
				return nil, err
			}
			ix := p.newExpr(eIndex, t)
			ix.L, ix.R = e, idx
			e = ix
		case cInc, cDec:
			p.pos++
			post := p.newExpr(ePostIncr, t)
			post.Op, post.L = t.code, e
			e = post
		default:
			return e, nil
		}
	}
}

func (p *parser) primaryExpr() (*Expr, error) {
	t := p.cur()
	switch t.kind {
	case tInt, tChar:
		p.pos++
		e := p.newExpr(eInt, t)
		e.Ival = t.ival
		return e, nil
	case tFloat:
		p.pos++
		e := p.newExpr(eFloat, t)
		e.Fval = t.fval
		return e, nil
	case tString:
		p.pos++
		e := p.newExpr(eStr, t)
		e.Text = t.text
		return e, nil
	case tIdent:
		p.pos++
		if !p.is(cLParen) {
			e := p.newExpr(eIdent, t)
			e.Text = t.text
			return e, nil
		}
		p.pos++
		mark := len(p.exprStack)
		for !p.is(cRParen) {
			a, err := p.assignExpr()
			if err != nil {
				p.exprStack = p.exprStack[:mark]
				return nil, err
			}
			p.exprStack = append(p.exprStack, a)
			if !p.accept(cComma) {
				break
			}
		}
		call := p.newExpr(eCall, t)
		call.Text = t.text
		call.Args = p.exprLists.clone(p.exprStack[mark:])
		p.exprStack = p.exprStack[:mark]
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.accept(cLParen) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(cRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %q", t.spelling())
}
