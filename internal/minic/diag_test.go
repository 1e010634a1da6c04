package minic

import "testing"

// diagCases are malformed sources with the exact diagnostic each one
// draws, position included. The texts were recorded from the front end as
// it stood before the parser compared punctuator codes instead of strings
// and carved its nodes from slabs; those rewrites must not change a byte.
var diagCases = []struct {
	name, src, want string
}{
	// Lexer.
	{"unterminated string", `long main(void){ char *s = "abc; return 0; }`, `d.c:1:45: unterminated string literal`},
	{"unterminated char", `long main(void){ long c = 'ab'; return c; }`, `d.c:1:30: unterminated char literal`},
	{"char at end of input", `long main(void){ long c = '`, `d.c:1:28: unterminated char literal`},
	{"bad escape", `long main(void){ long c = '\q'; return c; }`, `d.c:1:30: unknown escape \q`},
	{"escape at end of input", `long main(void){ char *s = "\`, `d.c:1:30: unterminated escape`},
	{"bad hex number", "long g = 0x;\nlong main(void){ return 0; }", `d.c:1:12: bad hex literal "0x"`},
	{"bad int number", "long main(void){\n  return 99999999999999999999;\n}", `d.c:2:30: bad int literal "99999999999999999999"`},
	{"bad float number", "long main(void){ double d = 1e+; return 0; }", `d.c:1:32: bad float literal "1e+"`},
	{"unexpected character", "long main(void){ return `; }", "d.c:1:25: unexpected character '`'"},

	// Parser.
	{"missing semicolon", "long main(void){\n  long x = 1\n  return x;\n}", `d.c:3:3: expected ";", got "return"`},
	{"missing semicolon at end of input", `long main(void){ return 0`, `d.c:1:26: expected ";", got ""`},
	{"string where semicolon expected", `long main(void){ return 0 "s"; }`, `d.c:1:27: expected ";", got ""`},
	{"unbalanced open brace", `long main(void){ if (1) { return 0; }`, `d.c:1:38: unterminated block`},
	{"unbalanced close brace", `long main(void){ return 0; } }`, `d.c:1:30: expected type, got "}"`},
	{"bad declarator", `long main(void){ long 5; return 0; }`, `d.c:1:23: expected name in declaration`},
	{"bad second declarator", `long main(void){ long a, *; return 0; }`, `d.c:1:27: expected name in declaration`},
	{"non-literal array length", `long main(void){ long n = 3; long a[n]; return 0; }`, `d.c:1:37: array length must be an integer literal`},
	{"missing global name", `long ;`, `d.c:1:6: expected name after type`},
	{"missing parameter name", `long f(long) { return 0; }`, `d.c:1:12: expected parameter name`},
	{"bad type", `long main(void){ return sizeof(int); }`, `d.c:1:32: expected type, got "int"`},
	{"unexpected token", `long main(void){ long x = ; return 0; }`, `d.c:1:27: unexpected token ";"`},
	{"bad for-init declarator", `long main(void){ for (long ; ; ) {} return 0; }`, `d.c:1:28: expected name in for-init declaration`},

	// Generator.
	{"undefined name", "long main(void){\n  return nope;\n}", `minic:2:10: undefined identifier "nope"`},
	{"undefined function", `long main(void){ missing(); return 0; }`, `minic:1:18: call to undefined function "missing"`},
	{"duplicate function", "long f(void){ return 1; }\nlong f(void){ return 2; }\nlong main(void){ return 0; }", `minic:2:6: duplicate function f`},
	{"duplicate of a prelude function", "long strlen(char *s){ return 0; }\nlong main(void){ return 0; }", `minic:1:6: duplicate function strlen`},
	{"redeclaration", `long main(void){ long x = 1; long x = 2; return x; }`, `minic:1:35: redeclaration of x`},
	{"tilde on double", `long main(void){ double d = 1.0; long x = ~d; return x; }`, `minic:1:43: ~ on double`},
	{"modulo on double", `long main(void){ double d = 1.0; d = d % d; return 0; }`, `minic:1:40: operator "%" on double`},
	{"compound modulo on double", `long main(void){ double d = 1.0; d %= 2.0; return 0; }`, `minic:1:36: operator "%"= on double`},
	{"pointer plus pointer", `long main(void){ char *p = 0; p = p + p; return 0; }`, `minic:1:37: pointer + pointer`},
	{"pointer times int", `long main(void){ char **p = 0; long x = p * 2; return x; }`, `minic:1:43: invalid pointer operation "*"`},
	{"dereference of non-pointer", `long main(void){ double d = 1.0; return *d; }`, `minic:1:41: dereference of non-pointer (double)`},
	{"index of non-pointer", `long main(void){ long x = 1; return x[0]; }`, `minic:1:38: indexing non-pointer (long)`},
	{"argument count", "long f(long a, long b){ return a + b; }\nlong main(void){ return f(1); }", `minic:2:25: f takes 2 args, got 1`},
	{"void value used", "void f(void){ }\nlong main(void){ long x = f(); return x; }", `minic:2:27: void value of f used`},
	{"assign to array", `long main(void){ long a[3]; a = 0; return 0; }`, `minic:1:29: cannot assign to array "a"`},
	{"break outside loop", `long main(void){ break; return 0; }`, `minic:1:18: break outside loop`},
	{"non-constant global", "long f(void){ return 1; }\nlong g = f();\nlong main(void){ return 0; }", `minic:2:10: initialiser is not a constant expression`},
	{"no main", `long helper(void){ return 1; }`, `minic: no main function`},
}

// TestDiagnosticsUnchanged pins each malformed source's diagnostic, text
// and position, through CompileToIR.
func TestDiagnosticsUnchanged(t *testing.T) {
	for _, c := range diagCases {
		_, err := CompileToIR("diag", Source{Name: "d.c", Code: c.src})
		if err == nil {
			t.Errorf("%s: compiled, want %s", c.name, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: got\n\t%s\nwant\n\t%s", c.name, err, c.want)
		}
	}
}
