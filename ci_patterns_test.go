package heterodc_bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFunc matches a top-level test function's name.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// goTestValueFlags are the go test flags CI passes with a separate value.
var goTestValueFlags = map[string]bool{"-run": true, "-fuzz": true, "-fuzztime": true, "-timeout": true, "-bench": true}

// TestCIRunPatternsResolve: every -run pattern a CI step hands to go test
// still selects tests, so that renaming or deleting a test cannot leave a
// step that passes by running nothing. Each alternative of the pattern
// (split at "|", "^$" excepted) must be a prefix of a test function's name
// in the package the step names.
func TestCIRunPatternsResolve(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for i, line := range strings.Split(string(ci), "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var pkgs []string
		run := ""
		args := strings.Fields(line[at+len("go test "):])
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case goTestValueFlags[a] && j+1 < len(args):
				if a == "-run" {
					run = strings.Trim(args[j+1], `'"`)
				}
				j++
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if run == "" {
			continue
		}
		if len(pkgs) != 1 || strings.Contains(pkgs[0], "...") {
			t.Errorf("ci.yml:%d: -run %q names packages %v; want exactly one, without ...", i+1, run, pkgs)
			continue
		}
		src := ""
		tests, _ := filepath.Glob(filepath.Join(pkgs[0], "*_test.go"))
		for _, f := range tests {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src += string(b)
		}
		var names []string
		for _, m := range testFunc.FindAllStringSubmatch(src, -1) {
			names = append(names, m[1])
		}
		for _, alt := range strings.Split(run, "|") {
			if alt == "^$" {
				continue
			}
			patterns++
			prefix := strings.TrimPrefix(strings.SplitN(alt, "/", 2)[0], "^")
			found := false
			for _, n := range names {
				if strings.HasPrefix(n, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test function in %s", i+1, alt, pkgs[0])
			}
		}
	}
	if patterns == 0 {
		t.Error("found no -run patterns in ci.yml; the parser no longer matches how steps are written")
	}
	t.Logf("%d -run alternatives checked", patterns)
}
