package minic

import (
	"testing"
	"unsafe"
)

// TestNodesStayPacked: a build makes one token per 3 to 4 source bytes and
// about a thousand expressions, so their sizes are what the front end's
// bytes scale with. Codes are bytes and positions int32s; a field that
// widens either shows here.
func TestNodesStayPacked(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"token", unsafe.Sizeof(token{}), 48},
		{"Expr", unsafe.Sizeof(Expr{}), 112},
		{"Stmt", unsafe.Sizeof(Stmt{}), 120},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, at most %d", c.name, c.size, c.max)
		}
	}
}

// TestPointerTypesInterned: within one parse, a pointer type is one *Ty
// however often it is written, at any depth, and each declarator of a list
// counts its own stars from the base type.
func TestPointerTypesInterned(t *testing.T) {
	prog, err := Parse("p.c", "long *a; long *b; char **c; char **d; char ***e; char **x, *y, ***z; long main(void) { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Globals
	if len(g) != 8 {
		t.Fatalf("%d globals, want 8", len(g))
	}
	if g[0].Ty != g[1].Ty || g[2].Ty != g[3].Ty || g[4].Ty.Elem != g[3].Ty {
		t.Errorf("pointer types not shared: %p %p, %p %p, %p %p", g[0].Ty, g[1].Ty, g[2].Ty, g[3].Ty, g[4].Ty.Elem, g[3].Ty)
	}
	for i, want := range []string{"long*", "long*", "char**", "char**", "char***", "char**", "char*", "char***"} {
		if s := g[i].Ty.String(); s != want {
			t.Errorf("%s is %s, want %s", g[i].Name, s, want)
		}
	}
	if g[5].Ty != g[2].Ty || g[6].Ty != g[2].Ty.Elem || g[7].Ty != g[4].Ty {
		t.Errorf("a declarator list's types are not the interned ones")
	}
}
