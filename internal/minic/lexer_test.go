package minic

import (
	"math"
	"testing"
)

// literalCase is one numeric literal and what the lexer makes of it: the
// first token's kind and value, or the full error text.
type literalCase struct {
	text string
	kind tokKind
	ival int64
	fval float64
	err  string
}

// literalCases were recorded against the lexer's former fmt.Sscanf
// conversions (%v then %x for hex, %d for decimal, %g for floats), so the
// strconv rewrite must reproduce each value, each rejection and each message.
var literalCases = []literalCase{
	{text: "0", kind: tInt, ival: 0},
	{text: "42", kind: tInt, ival: 42},
	{text: "007", kind: tInt, ival: 7},
	{text: "9223372036854775807", kind: tInt, ival: math.MaxInt64},
	{text: "9223372036854775808", err: `lit.c:1:20: bad int literal "9223372036854775808"`},
	{text: "99999999999999999999", err: `lit.c:1:21: bad int literal "99999999999999999999"`},
	{text: "12ab", kind: tInt, ival: 12},

	{text: "0x1f", kind: tInt, ival: 0x1f},
	{text: "0X1F", kind: tInt, ival: 0x1f},
	{text: "0xAbCdEf", kind: tInt, ival: 0xabcdef},
	{text: "0x0000000000000000001", kind: tInt, ival: 1},
	{text: "0x7fffffffffffffff", kind: tInt, ival: math.MaxInt64},
	{text: "0xffffffffffffffff", kind: tInt, ival: -1},
	{text: "0x8000000000000000", kind: tInt, ival: math.MinInt64},
	{text: "0x10000000000000000", err: `lit.c:1:20: bad hex literal "0x10000000000000000"`},
	{text: "0x", err: `lit.c:1:3: bad hex literal "0x"`},
	{text: "0X", err: `lit.c:1:3: bad hex literal "0X"`},
	{text: "0xg", err: `lit.c:1:3: bad hex literal "0x"`},
	{text: "0x1g", kind: tInt, ival: 1},

	{text: "1.", kind: tFloat, fval: 1},
	{text: ".5", kind: tFloat, fval: 0.5},
	{text: "00.5", kind: tFloat, fval: 0.5},
	{text: "3.14159", kind: tFloat, fval: 3.14159},
	{text: "1e5", kind: tFloat, fval: 1e5},
	{text: "1E5", kind: tFloat, fval: 1e5},
	{text: "1e+5", kind: tFloat, fval: 1e5},
	{text: "2.5e-3", kind: tFloat, fval: 2.5e-3},
	{text: "1.e3", kind: tFloat, fval: 1e3},
	{text: "0e0", kind: tFloat, fval: 0},
	{text: "1e308", kind: tFloat, fval: 1e308},
	{text: "1e-400", kind: tFloat, fval: 0},
	{text: "1e400", err: `lit.c:1:6: bad float literal "1e400"`},
	{text: "1e+", err: `lit.c:1:4: bad float literal "1e+"`},
	{text: "1e", err: `lit.c:1:3: bad float literal "1e"`},
	{text: "1.5e-", err: `lit.c:1:6: bad float literal "1.5e-"`},
}

func TestNumberLiterals(t *testing.T) {
	for _, c := range literalCases {
		toks, err := lex("lit.c", c.text, nil)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%q: error %v, want %s", c.text, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.text, err)
			continue
		}
		tok := toks[0]
		if tok.kind != c.kind || tok.ival != c.ival || math.Float64bits(tok.fval) != math.Float64bits(c.fval) {
			t.Errorf("%q: kind %d ival %d fval %g, want kind %d ival %d fval %g",
				c.text, tok.kind, tok.ival, tok.fval, c.kind, c.ival, c.fval)
		}
	}
}

// LiteralSeeds is every literal of literalCases as the initialiser of a
// global, for FuzzCompile's seed corpus.
func LiteralSeeds() []string {
	out := make([]string, len(literalCases))
	for i, c := range literalCases {
		out[i] = "long g = " + c.text + ";\nlong main(void) { return 0; }\n"
	}
	return out
}
