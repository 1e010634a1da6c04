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
type tokKind int

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

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	sval string // decoded string literal
	line int
	col  int
}

var keywords = map[string]bool{
	"long": true, "double": true, "char": true, "void": true,
	"if": true, "else": true, "while": true, "do": true, "for": true,
	"return": true, "break": true, "continue": true, "sizeof": true,
	"static": true, "const": true,
}

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
	line int
	col  int
	toks []token
}

func lex(file, src string) ([]token, error) {
	// The prelude and the NPB programs measure 2.9 to 4.2 source bytes per
	// token, so this capacity holds nearly every program's tokens without
	// regrowing the slice.
	lx := &lexer{file: file, src: src, line: 1, col: 1, toks: make([]token, 0, len(src)/3+1)}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

func (lx *lexer) errf(format string, args ...interface{}) error {
	return &Error{File: lx.file, Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
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

// punctsByFirst lists the punctuators by their first byte, longest first.
var punctsByFirst = func() (by [256][]string) {
	for _, p := range []string{
		"<<=", ">>=", "...",
		"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
		"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
		"(", ")", "{", "}", "[", "]", ",", ";", "?", ":",
	} {
		by[p[0]] = append(by[p[0]], p)
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
			k := tIdent
			if keywords[word] {
				k = tKeyword
			}
			lx.emit(token{kind: k, text: word, line: line, col: col})
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
			for _, p := range punctsByFirst[c] {
				if strings.HasPrefix(lx.src[lx.pos:], p) {
					for range p {
						lx.advance()
					}
					lx.emit(token{kind: tPunct, text: p, line: line, col: col})
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

func (lx *lexer) number(line, col int) error {
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

func (lx *lexer) stringLit(line, col int) error {
	lx.advance() // opening quote
	var sb []byte
	for {
		if lx.pos >= len(lx.src) {
			return lx.errf("unterminated string literal")
		}
		if lx.peek() == '"' {
			lx.advance()
			break
		}
		b, err := lx.escape()
		if err != nil {
			return err
		}
		sb = append(sb, b)
	}
	lx.emit(token{kind: tString, sval: string(sb), line: line, col: col})
	return nil
}

func (lx *lexer) charLit(line, col int) error {
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
