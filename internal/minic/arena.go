package minic

// slab hands out values carved from chunks it allocates, and copies lists
// into exact-size slices cut from the same chunks. A slab serves one build:
// everything it hands out dies with that build's AST, so a chunk's unused
// tail is the only memory it wastes.
type slab[T any] struct {
	free  []T
	chunk int // values per chunk
}

// new returns a zeroed value.
func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.free = make([]T, s.chunk)
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}

// take returns n zeroed values as a slice of exactly that length; nil when
// n is 0.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		s.free = make([]T, max(s.chunk, n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// clone copies xs into a slice of exactly its length; nil when xs is empty.
func (s *slab[T]) clone(xs []T) []T {
	out := s.take(len(xs))
	copy(out, xs)
	return out
}

// Chunk sizes, in values, from what one build (the prelude plus one
// program) makes; the ranges are over the 36 NPB builds of the toolchain
// benchmark. Each build takes a few chunks of the big kinds and one or two
// of the small ones, and a chunk's unused tail, the only waste, averages
// half a chunk: about 13 KiB of expressions, 8 KiB of statements and
// 1 KiB or less of each other kind.
const (
	exprChunk      = 256 // 911 to 1,787 expressions
	stmtChunk      = 128 // 327 to 484 statements
	declChunk      = 32  // 69 to 113 declarators
	funcChunk      = 32  // 51 to 65 functions
	tyChunk        = 8   // 3 or 4 pointer types
	exprListChunk  = 128 // 85 to 208 call arguments and initialisers
	stmtListChunk  = 128 // 216 to 306 block statements
	declListChunk  = 64  // 69 to 113 declarators, in lists
	paramListChunk = 64  // 60 to 84 parameters
)

// arena owns one build's front-end memory: the token buffer, the AST, the
// pointer types, and the stacks child lists are gathered on. Parse and
// CompileToIR make one per call and drop it on return; nothing in it
// outlives the call except through the AST that Parse returns.
type arena struct {
	toks []token // reused by each source in turn

	exprs slab[Expr]
	stmts slab[Stmt]
	decls slab[Decl]
	fdecl slab[FuncDecl]
	tys   slab[Ty]

	exprLists  slab[*Expr]
	stmtLists  slab[*Stmt]
	declLists  slab[*Decl]
	paramLists slab[Param]

	// Child lists are gathered on these stacks and copied out once
	// complete; a nested list pushes above its parent's and pops back.
	// declStack's bottom holds the globals of every source parsed so far,
	// funcStack the functions.
	exprStack  []*Expr
	stmtStack  []*Stmt
	declStack  []*Decl
	paramStack []Param
	funcStack  []*FuncDecl

	// basePtr[k] is the build's pointer type to base kind k; a pointer
	// type's own pointer type hangs off Ty.ptr.
	basePtr [tyPtr]*Ty
}

func newArena() *arena {
	return &arena{
		exprs:      slab[Expr]{chunk: exprChunk},
		stmts:      slab[Stmt]{chunk: stmtChunk},
		decls:      slab[Decl]{chunk: declChunk},
		fdecl:      slab[FuncDecl]{chunk: funcChunk},
		tys:        slab[Ty]{chunk: tyChunk},
		exprLists:  slab[*Expr]{chunk: exprListChunk},
		stmtLists:  slab[*Stmt]{chunk: stmtListChunk},
		declLists:  slab[*Decl]{chunk: declListChunk},
		paramLists: slab[Param]{chunk: paramListChunk},
	}
}

// ptrTo returns the pointer type to t, the same *Ty for the same t
// throughout the build.
func (a *arena) ptrTo(t *Ty) *Ty {
	slot := &t.ptr
	if t.Kind != tyPtr {
		slot = &a.basePtr[t.Kind]
	}
	if *slot == nil {
		p := a.tys.new()
		p.Kind, p.Elem = tyPtr, t
		*slot = p
	}
	return *slot
}

// parse lexes and parses one source, adding its globals and functions to
// the arena's.
func (a *arena) parse(file, src string) error {
	toks, err := lex(file, src, a.toks)
	a.toks = toks
	if err != nil {
		return err
	}
	p := parser{arena: a, file: file, toks: toks}
	return p.program()
}

// program returns everything parsed so far as one translation unit.
func (a *arena) program() *Program {
	prog := &Program{Globals: a.declLists.clone(a.declStack)}
	if len(a.funcStack) > 0 {
		prog.Funcs = make([]*FuncDecl, len(a.funcStack))
		copy(prog.Funcs, a.funcStack)
	}
	return prog
}
