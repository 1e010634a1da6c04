// Package minic implements the mini-C frontend: a lexer, parser, type
// checker and IR code generator for the C subset the workloads are written
// in. It plays the role of clang in the paper's toolchain; programs are
// compiled once to IR, and the per-ISA backends take it from there.
//
// The language: `long` (64-bit signed), `double`, `char` (byte), pointers
// and fixed-size arrays thereof; functions; globals with initialisers;
// control flow (if/else, while, do-while, for, break, continue, return);
// the usual C operators including &&/||, ?:, ++/--, compound assignment;
// address-of and dereference; string and character literals; and a handful
// of builtins (__syscall, __atomic_add, __atomic_cas, __icall, sqrt) from
// which the runtime library (see prelude.go) builds the libc-like API.
package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tString
	tChar
	tPunct
	tKeyword
)

// token is one lexeme. A punctuator or keyword carries its code, so the
// parser compares one byte where it compared strings.
type token struct {
	text      string // spelling; a string literal's decoded bytes
	ival      int64
	fval      float64
	line, col int32
	kind      tokKind
	code      code // punctuator or keyword; cNone for every other kind
}

// spelling is the token as diagnostics quote it: a string or character
// literal shows as "".
func (t *token) spelling() string {
	if t.kind == tString {
		return ""
	}
	return t.text
}

// code names a punctuator or a keyword.
type code uint8

const (
	cNone code = iota

	// Punctuators.
	cShlAssign // <<=
	cShrAssign // >>=
	cEllipsis  // ...
	cEq        // ==
	cNe        // !=
	cLe        // <=
	cGe        // >=
	cAndAnd    // &&
	cOrOr      // ||
	cShl       // <<
	cShr       // >>
	cAddAssign // +=
	cSubAssign // -=
	cMulAssign // *=
	cDivAssign // /=
	cModAssign // %=
	cAndAssign // &=
	cOrAssign  // |=
	cXorAssign // ^=
	cInc       // ++
	cDec       // --
	cArrow     // ->
	cAdd       // +
	cSub       // -
	cMul       // *
	cDiv       // /
	cMod       // %
	cAnd       // &
	cOr        // |
	cXor       // ^
	cTilde     // ~
	cNot       // !
	cLt        // <
	cGt        // >
	cAssign    // =
	cLParen    // (
	cRParen    // )
	cLBrace    // {
	cRBrace    // }
	cLBrack    // [
	cRBrack    // ]
	cComma     // ,
	cSemi      // ;
	cQuest     // ?
	cColon     // :

	// Keywords.
	kLong
	kDouble
	kChar
	kVoid
	kIf
	kElse
	kWhile
	kDo
	kFor
	kReturn
	kBreak
	kContinue
	kSizeof
	kStatic
	kConst

	numCodes
)

// spellings[c] is code c's source text.
var spellings = [numCodes]string{
	cShlAssign: "<<=", cShrAssign: ">>=", cEllipsis: "...",
	cEq: "==", cNe: "!=", cLe: "<=", cGe: ">=", cAndAnd: "&&", cOrOr: "||", cShl: "<<", cShr: ">>",
	cAddAssign: "+=", cSubAssign: "-=", cMulAssign: "*=", cDivAssign: "/=", cModAssign: "%=",
	cAndAssign: "&=", cOrAssign: "|=", cXorAssign: "^=", cInc: "++", cDec: "--", cArrow: "->",
	cAdd: "+", cSub: "-", cMul: "*", cDiv: "/", cMod: "%", cAnd: "&", cOr: "|", cXor: "^",
	cTilde: "~", cNot: "!", cLt: "<", cGt: ">", cAssign: "=",
	cLParen: "(", cRParen: ")", cLBrace: "{", cRBrace: "}", cLBrack: "[", cRBrack: "]",
	cComma: ",", cSemi: ";", cQuest: "?", cColon: ":",
	kLong: "long", kDouble: "double", kChar: "char", kVoid: "void",
	kIf: "if", kElse: "else", kWhile: "while", kDo: "do", kFor: "for",
	kReturn: "return", kBreak: "break", kContinue: "continue", kSizeof: "sizeof",
	kStatic: "static", kConst: "const",
}

func (c code) String() string { return spellings[c] }

var keywords = func() map[string]code {
	m := make(map[string]code, numCodes-kLong)
	for c := kLong; c < numCodes; c++ {
		m[spellings[c]] = c
	}
	return m
}()

// Error is a frontend diagnostic with position information.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

type lexer struct {
	file string
	src  string
	pos  int
	line int32
	col  int32
	toks []token
}

// tokCap is a capacity that holds src's tokens: the prelude and the NPB
// programs measure 2.9 to 4.2 source bytes per token, so nearly every
// program lexes without regrowing its slice.
func tokCap(src string) int { return len(src)/3 + 1 }

// lex appends src's tokens to toks[:0].
func lex(file, src string, toks []token) ([]token, error) {
	lx := lexer{file: file, src: src, line: 1, col: 1, toks: toks[:0]}
	if err := lx.run(); err != nil {
		return toks, err
	}
	return lx.toks, nil
}

func (lx *lexer) errf(format string, args ...interface{}) error {
	return &Error{File: lx.file, Line: int(lx.line), Col: int(lx.col), Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) emit(t token) {
	lx.toks = append(lx.toks, t)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// punctsByFirst lists the punctuators by their first byte, longest first
// (the codes run from the three-byte punctuators down to the one-byte ones).
var punctsByFirst = func() (by [256][]code) {
	for c := cShlAssign; c < kLong; c++ {
		p := spellings[c]
		by[p[0]] = append(by[p[0]], c)
	}
	return by
}()

func (lx *lexer) run() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		line, col := lx.line, lx.col
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		case isDigit(c) || (c == '.' && isDigit(lx.peek2())):
			if err := lx.number(line, col); err != nil {
				return err
			}
		case isAlpha(c):
			start := lx.pos
			for lx.pos < len(lx.src) && (isAlpha(lx.peek()) || isDigit(lx.peek())) {
				lx.advance()
			}
			word := lx.src[start:lx.pos]
			k, c := tIdent, cNone
			if kc, ok := keywords[word]; ok {
				k, c = tKeyword, kc
			}
			lx.emit(token{kind: k, code: c, text: word, line: line, col: col})
		case c == '"':
			if err := lx.stringLit(line, col); err != nil {
				return err
			}
		case c == '\'':
			if err := lx.charLit(line, col); err != nil {
				return err
			}
		default:
			matched := false
			for _, pc := range punctsByFirst[c] {
				if p := spellings[pc]; strings.HasPrefix(lx.src[lx.pos:], p) {
					for range p {
						lx.advance()
					}
					lx.emit(token{kind: tPunct, code: pc, text: p, line: line, col: col})
					matched = true
					break
				}
			}
			if !matched {
				return lx.errf("unexpected character %q", c)
			}
		}
	}
	lx.emit(token{kind: tEOF, line: lx.line, col: lx.col})
	return nil
}

func (lx *lexer) number(line, col int32) error {
	start := lx.pos
	isFloat := false
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for isDigit(lx.peek()) || (lx.peek() >= 'a' && lx.peek() <= 'f') || (lx.peek() >= 'A' && lx.peek() <= 'F') {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return lx.errf("bad hex literal %q", text)
		}
		lx.emit(token{kind: tInt, text: text, ival: int64(v), line: line, col: col})
		return nil
	}
	for isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' {
		isFloat = true
		lx.advance()
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if lx.peek() == 'e' || lx.peek() == 'E' {
		isFloat = true
		lx.advance()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.advance()
		}
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	text := lx.src[start:lx.pos]
	// text is decimal digits with at most a fraction and an exponent, the
	// syntax strconv parses (TestNumberLiterals pins values and rejections).
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return lx.errf("bad float literal %q", text)
		}
		lx.emit(token{kind: tFloat, text: text, fval: f, line: line, col: col})
	} else {
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return lx.errf("bad int literal %q", text)
		}
		lx.emit(token{kind: tInt, text: text, ival: v, line: line, col: col})
	}
	return nil
}

func (lx *lexer) escape() (byte, error) {
	c := lx.advance()
	if c != '\\' {
		return c, nil
	}
	if lx.pos >= len(lx.src) {
		return 0, lx.errf("unterminated escape")
	}
	e := lx.advance()
	switch e {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, lx.errf("unknown escape \\%c", e)
}

func (lx *lexer) stringLit(line, col int32) error {
	lx.advance() // opening quote
	// A literal without escapes is its own spelling in the source.
	start := lx.pos
	var sb []byte
	for {
		if lx.pos >= len(lx.src) {
			return lx.errf("unterminated string literal")
		}
		if lx.peek() == '"' {
			break
		}
		if lx.peek() == '\\' && sb == nil {
			sb = append(make([]byte, 0, 2*(lx.pos-start)+8), lx.src[start:lx.pos]...)
		}
		b, err := lx.escape()
		if err != nil {
			return err
		}
		if sb != nil {
			sb = append(sb, b)
		}
	}
	text := lx.src[start:lx.pos]
	lx.advance()
	if sb != nil {
		text = string(sb)
	}
	lx.emit(token{kind: tString, text: text, line: line, col: col})
	return nil
}

func (lx *lexer) charLit(line, col int32) error {
	lx.advance() // opening quote
	if lx.pos >= len(lx.src) {
		return lx.errf("unterminated char literal")
	}
	b, err := lx.escape()
	if err != nil {
		return err
	}
	if lx.pos >= len(lx.src) || lx.advance() != '\'' {
		return lx.errf("unterminated char literal")
	}
	lx.emit(token{kind: tChar, ival: int64(b), line: line, col: col})
	return nil
}
