package minic

import (
	"strings"
	"testing"

	"heterodc/internal/ir"
)

// run compiles src to IR and executes it on the reference interpreter,
// returning its stdout.
func run(t *testing.T, src string) string {
	t.Helper()
	m, err := CompileToIR("test", Source{Name: "test.c", Code: src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ip := ir.NewInterp(m)
	if _, err := ip.Run("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	return string(ip.Output())
}

// expectOut asserts the program prints want.
func expectOut(t *testing.T, src, want string) {
	t.Helper()
	if got := run(t, src); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
}

// expectErr asserts compilation fails mentioning frag.
func expectErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := CompileToIR("test", Source{Name: "test.c", Code: src})
	if err == nil {
		t.Fatalf("expected error containing %q, compiled fine", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("error %q does not mention %q", err, frag)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	expectOut(t, `long main(void){ print_i64_ln(2 + 3 * 4 - 10 / 2); return 0; }`, "9\n")
	expectOut(t, `long main(void){ print_i64_ln((2 + 3) * 4); return 0; }`, "20\n")
	expectOut(t, `long main(void){ print_i64_ln(17 % 5); return 0; }`, "2\n")
	expectOut(t, `long main(void){ print_i64_ln(1 << 10 | 3); return 0; }`, "1027\n")
	expectOut(t, `long main(void){ print_i64_ln(255 & 15 ^ 1); return 0; }`, "14\n")
	expectOut(t, `long main(void){ print_i64_ln(-7 / 2); return 0; }`, "-3\n")
}

func TestUnaryOperators(t *testing.T) {
	expectOut(t, `long main(void){ print_i64_ln(-(-5)); return 0; }`, "5\n")
	expectOut(t, `long main(void){ print_i64_ln(!0 + !7); return 0; }`, "1\n")
	expectOut(t, `long main(void){ print_i64_ln(~0); return 0; }`, "-1\n")
}

func TestComparisons(t *testing.T) {
	expectOut(t, `long main(void){
		print_i64(1 < 2); print_i64(2 <= 2); print_i64(3 > 4);
		print_i64(4 >= 4); print_i64(5 == 5); print_i64(5 != 5);
		println(); return 0; }`, "110110\n")
}

func TestShortCircuitSideEffects(t *testing.T) {
	expectOut(t, `
long calls = 0;
long bump(void) { calls++; return 1; }
long main(void) {
	long a = 0 && bump();
	long b = 1 || bump();
	print_i64(a); print_i64(b); print_i64_ln(calls);
	return 0;
}`, "010\n")
	expectOut(t, `
long calls = 0;
long bump(void) { calls++; return 0; }
long main(void) {
	long a = 1 && bump();
	long b = 0 || bump();
	print_i64(a); print_i64(b); print_i64_ln(calls);
	return 0;
}`, "002\n")
}

func TestTernary(t *testing.T) {
	expectOut(t, `long main(void){ print_i64_ln(3 > 2 ? 10 : 20); return 0; }`, "10\n")
	expectOut(t, `long main(void){ long x = 0; print_i64_ln(x ? 1 : x == 0 ? 2 : 3); return 0; }`, "2\n")
	expectOut(t, `long main(void){ print_f64(1 ? 2.5 : 0.0); println(); return 0; }`, "2.500000\n")
}

func TestLoops(t *testing.T) {
	expectOut(t, `long main(void){
		long s = 0;
		for (long i = 0; i < 10; i++) s += i;
		print_i64_ln(s); return 0; }`, "45\n")
	expectOut(t, `long main(void){
		long s = 0; long i = 0;
		while (i < 5) { s += i * i; i++; }
		print_i64_ln(s); return 0; }`, "30\n")
	expectOut(t, `long main(void){
		long n = 0;
		do { n++; } while (n < 3);
		print_i64_ln(n); return 0; }`, "3\n")
}

func TestBreakContinue(t *testing.T) {
	expectOut(t, `long main(void){
		long s = 0;
		for (long i = 0; i < 100; i++) {
			if (i % 2 == 0) continue;
			if (i > 10) break;
			s += i;
		}
		print_i64_ln(s); return 0; }`, "25\n")
	expectOut(t, `long main(void){
		long s = 0;
		for (long i = 0; i < 3; i++) {
			for (long j = 0; j < 10; j++) {
				if (j == 2) break;
				s += 1;
			}
		}
		print_i64_ln(s); return 0; }`, "6\n")
}

func TestIncrDecr(t *testing.T) {
	expectOut(t, `long main(void){
		long x = 5;
		print_i64(x++); print_i64(x); print_i64(++x); print_i64(x--); print_i64(--x);
		println(); return 0; }`, "56775\n")
}

func TestCompoundAssignment(t *testing.T) {
	expectOut(t, `long main(void){
		long x = 10;
		x += 5; x -= 3; x *= 2; x /= 4; x %= 4; x <<= 3; x |= 1; x ^= 2; x &= 31;
		print_i64_ln(x); return 0; }`, "19\n")
	expectOut(t, `long main(void){
		double d = 1.0; d += 0.5; d *= 4.0; d /= 2.0; d -= 1.0;
		print_f64(d); println(); return 0; }`, "2.000000\n")
}

func TestArraysAndPointers(t *testing.T) {
	expectOut(t, `long main(void){
		long a[5];
		for (long i = 0; i < 5; i++) a[i] = i * i;
		long *p = &a[1];
		print_i64(a[3]); print_i64(*p); print_i64(p[2]); print_i64(*(p + 3));
		println(); return 0; }`, "91916\n")
}

func TestPointerArithmetic(t *testing.T) {
	expectOut(t, `long main(void){
		long a[4] = {10, 20, 30, 40};
		long *p = a;
		long *q = p + 3;
		print_i64(q - p); print_i64(*(q - 1)); print_i64(p < q);
		println(); return 0; }`, "3301\n")
}

func TestAddressOfScalar(t *testing.T) {
	expectOut(t, `
void bump(long *p) { *p += 7; }
long main(void){
	long x = 1;
	bump(&x);
	bump(&x);
	print_i64_ln(x); return 0; }`, "15\n")
}

func TestCharArraysAndStrings(t *testing.T) {
	expectOut(t, `long main(void){
		char buf[8];
		buf[0] = 'h'; buf[1] = 'i'; buf[2] = 0;
		print_str(buf); print_char('!'); println();
		print_i64_ln(strlen("hello"));
		return 0; }`, "hi!\n5\n")
	expectOut(t, `long main(void){
		char *s = "abc";
		print_i64(s[0]); print_i64(s[2]); println(); return 0; }`, "9799\n")
}

func TestStrcmp(t *testing.T) {
	expectOut(t, `long main(void){
		print_i64(strcmp("abc", "abc") == 0);
		print_i64(strcmp("abc", "abd") < 0);
		print_i64(strcmp("b", "a") > 0);
		println(); return 0; }`, "111\n")
}

func TestGlobalsWithInitializers(t *testing.T) {
	expectOut(t, `
long g = 6 * 7;
double d = 1.5 + 1.0;
long table[4] = {1, 2, 3, 4};
char name[8] = {'o', 'k', 0};
long main(void){
	print_i64(g); print_f64(d); print_i64(table[2]); print_str(name);
	println(); return 0; }`, "422.5000003ok\n")
}

func TestGlobalModification(t *testing.T) {
	expectOut(t, `
long counter = 0;
void inc(void) { counter += 2; }
long main(void){ inc(); inc(); inc(); print_i64_ln(counter); return 0; }`, "6\n")
}

func TestDoubleArithmeticAndCasts(t *testing.T) {
	expectOut(t, `long main(void){
		double x = 7.0 / 2.0;
		long t = (long)x;
		double b = (double)t / 2.0;
		print_f64(x); print_char(' '); print_i64(t); print_char(' '); print_f64(b);
		println(); return 0; }`, "3.500000 3 1.500000\n")
	// Implicit int->double promotion in mixed expressions.
	expectOut(t, `long main(void){ print_f64(1 + 0.5); println(); return 0; }`, "1.500000\n")
}

func TestSqrtBuiltin(t *testing.T) {
	expectOut(t, `long main(void){ print_f64(sqrt(2.0) * sqrt(2.0)); println(); return 0; }`,
		"2.000000\n")
	expectOut(t, `long main(void){ print_i64_ln((long)sqrt(144)); return 0; }`, "12\n")
}

func TestRecursion(t *testing.T) {
	expectOut(t, `
long fact(long n) { if (n <= 1) return 1; return n * fact(n - 1); }
long main(void){ print_i64_ln(fact(10)); return 0; }`, "3628800\n")
}

func TestMutualRecursion(t *testing.T) {
	expectOut(t, `
long isEven(long n) { if (n == 0) return 1; return isOdd(n - 1); }
long isOdd(long n) { if (n == 0) return 0; return isEven(n - 1); }
long main(void){ print_i64(isEven(10)); print_i64(isOdd(7)); println(); return 0; }`,
		"11\n")
}

func TestSizeof(t *testing.T) {
	expectOut(t, `long main(void){
		print_i64(sizeof(long)); print_i64(sizeof(double));
		print_i64(sizeof(char)); print_i64(sizeof(long*));
		println(); return 0; }`, "8818\n")
}

func TestMallocFree(t *testing.T) {
	expectOut(t, `long main(void){
		long *a = (long*)malloc(10 * 8);
		for (long i = 0; i < 10; i++) a[i] = i * 3;
		long s = 0;
		for (long i = 0; i < 10; i++) s += a[i];
		free((char*)a);
		// Reuse from the free list.
		long *b = (long*)malloc(8 * 8);
		b[0] = 100;
		print_i64(s); print_i64(b[0]); println();
		return 0; }`, "135100\n")
}

func TestPrintNumbersEdges(t *testing.T) {
	expectOut(t, `long main(void){
		print_i64_ln(0);
		print_i64_ln(-1);
		print_i64_ln(9223372036854775807);
		print_f64(-0.125); println();
		return 0; }`, "0\n-1\n9223372036854775807\n-0.125000\n")
}

func TestCommentsAndWhitespace(t *testing.T) {
	expectOut(t, `
// line comment
/* block
   comment */
long main(void) { /* inline */ print_i64_ln(1); // trailing
	return 0; }`, "1\n")
}

func TestMultipleDeclarators(t *testing.T) {
	expectOut(t, `long main(void){
		long a = 1, b = 2, c = a + b;
		print_i64_ln(c); return 0; }`, "3\n")
}

func TestScoping(t *testing.T) {
	expectOut(t, `long main(void){
		long x = 1;
		{ long x = 2; print_i64(x); }
		print_i64(x);
		for (long x = 9; x < 10; x++) print_i64(x);
		println(); return 0; }`, "219\n")
}

func TestHexAndCharLiterals(t *testing.T) {
	expectOut(t, `long main(void){
		print_i64(0xff); print_char(' '); print_i64('A'); print_char(' '); print_i64('\n');
		println(); return 0; }`, "255 65 10\n")
}

// --- error cases ---

func TestErrorUndefinedVariable(t *testing.T) {
	expectErr(t, `long main(void){ return nope; }`, "undefined identifier")
}

func TestErrorUndefinedFunction(t *testing.T) {
	expectErr(t, `long main(void){ missing(); return 0; }`, "undefined function")
}

func TestErrorNoMain(t *testing.T) {
	expectErr(t, `long helper(void){ return 1; }`, "no main")
}

func TestErrorRedeclaration(t *testing.T) {
	expectErr(t, `long main(void){ long x = 1; long x = 2; return x; }`, "redeclaration")
}

func TestErrorBreakOutsideLoop(t *testing.T) {
	expectErr(t, `long main(void){ break; return 0; }`, "break outside loop")
}

func TestErrorAssignToArray(t *testing.T) {
	expectErr(t, `long main(void){ long a[3]; a = 0; return 0; }`, "cannot assign to array")
}

func TestErrorDerefNonPointer(t *testing.T) {
	expectErr(t, `long main(void){ double d = 1.0; return *d; }`, "dereference of non-pointer")
}

func TestErrorArgCount(t *testing.T) {
	expectErr(t, `
long f(long a, long b) { return a + b; }
long main(void){ return f(1); }`, "takes 2 args")
}

func TestErrorParse(t *testing.T) {
	expectErr(t, `long main(void){ long x = ; return 0; }`, "unexpected token")
	expectErr(t, `long main(void){ return 0 }`, `expected ";"`)
	expectErr(t, `long main(void){ return 0; `, "unterminated block")
}

func TestErrorLexer(t *testing.T) {
	expectErr(t, "long main(void){ return `; }", "unexpected character")
	expectErr(t, `long main(void){ char *s = "abc; return 0; }`, "unterminated string")
}

// TestErrorEscapeAtEndOfInput: a backslash that is the last byte of the
// source is an error, not an out-of-range read.
func TestErrorEscapeAtEndOfInput(t *testing.T) {
	expectErr(t, `long main(void){ char *s = "\`, "unterminated escape")
	expectErr(t, `long main(void){ return '\`, "unterminated escape")
}

func TestErrorNonConstGlobalInit(t *testing.T) {
	expectErr(t, `
long f(void) { return 1; }
long g = f();
long main(void){ return 0; }`, "not a constant")
}

func TestSpacedKeywordsConstStatic(t *testing.T) {
	expectOut(t, `
static const long k = 9;
long main(void){ const long x = k + 1; print_i64_ln(x); return 0; }`, "10\n")
}
