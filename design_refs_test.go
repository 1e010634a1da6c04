package heterodc_bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designRef matches a reference to DESIGN.md's sections: "DESIGN.md",
	// optionally quoted as code, then one or more section signs, which a
	// comment or a paragraph may wrap onto the next line ("§3, §12").
	designRef   = regexp.MustCompile("DESIGN\\.md`?(?:\\s|//)*§[0-9]+[a-z]?(?:(?:,|and|or|\\s|//)+§[0-9]+[a-z]?)*")
	sectionSign = regexp.MustCompile("§([0-9]+[a-z]?)")
	heading     = regexp.MustCompile(`(?m)^## ([0-9]+[a-z]?)\. `)
)

// TestDesignRefsResolve: every section of DESIGN.md that a Go file, the
// README or the verify skill names exists as a "## N." heading, so that a
// renumbered or deleted section cannot leave a reference pointing nowhere.
func TestDesignRefsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	files := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range designRef.FindAllString(string(src), -1) {
			for _, m := range sectionSign.FindAllStringSubmatch(ref, -1) {
				refs++
				if !sections[m[1]] {
					t.Errorf("%s: %q names DESIGN.md §%s, which has no \"## %s.\" heading", path, ref, m[1], m[1])
				}
			}
		}
	}
	if refs == 0 {
		t.Error("found no DESIGN.md references at all; the pattern no longer matches how they are written")
	}
	t.Logf("%d references in %d files", refs, len(files))
}
