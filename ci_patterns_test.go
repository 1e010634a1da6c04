package heterodc_bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"heterodc/internal/exp"
)

// funcOf matches a top-level function's name: a test, fuzz target or
// benchmark, by the flag that selects it.
var funcOf = map[string]*regexp.Regexp{
	"-run":   regexp.MustCompile(`(?m)^func (Test\w*)\(`),
	"-fuzz":  regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`),
	"-bench": regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`),
}

// goTestValueFlags are the go test flags CI passes with a separate value.
var goTestValueFlags = map[string]bool{"-run": true, "-fuzz": true, "-fuzztime": true, "-timeout": true, "-bench": true, "-benchtime": true}

// TestCIRunPatternsResolve: every -run, -fuzz and -bench pattern a CI step
// hands to go test still selects a function, so that renaming or deleting
// a test, fuzz target or benchmark cannot leave a step that passes by
// running nothing (go test -fuzz with no match prints "no fuzz tests to
// fuzz" and exits 0). Each alternative of the pattern (split at "|", "^$"
// excepted) must be a prefix of the name of such a function in the package
// the step names.
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
		selects := map[string]string{}
		args := strings.Fields(line[at+len("go test "):])
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case goTestValueFlags[a] && j+1 < len(args):
				if funcOf[a] != nil {
					selects[a] = strings.Trim(args[j+1], `'"`)
				}
				j++
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(selects) == 0 {
			continue
		}
		if len(pkgs) != 1 || strings.Contains(pkgs[0], "...") {
			t.Errorf("ci.yml:%d: %v names packages %v; want exactly one, without ...", i+1, selects, pkgs)
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
		for flag, pattern := range selects {
			var names []string
			for _, m := range funcOf[flag].FindAllStringSubmatch(src, -1) {
				names = append(names, m[1])
			}
			for _, alt := range strings.Split(pattern, "|") {
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
					t.Errorf("ci.yml:%d: %s alternative %q matches no function in %s", i+1, flag, alt, pkgs[0])
				}
			}
		}
	}
	if patterns == 0 {
		t.Error("found no -run, -fuzz or -bench patterns in ci.yml; the parser no longer matches how steps are written")
	}
	t.Logf("%d alternatives checked", patterns)
}

// plainPair matches a YAML line holding one key and its value: an
// optional sequence dash, the key, ": ", and the rest of the line.
var plainPair = regexp.MustCompile(`^(\s*)(?:- )?[\w.-]+: (.*)$`)

// TestCIScalarsAreQuoted: no unquoted value in ci.yml contains ": " (a YAML
// parser rejects the file: "mapping values are not allowed here") or " #"
// (the rest of the value silently becomes a comment). Step names are
// prose, so a colon typed into one breaks the whole workflow; quote such a
// value. The lines of a block scalar ("run: |") are shell, not YAML, and
// are skipped.
func TestCIScalarsAreQuoted(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	block := -1 // indentation of the key that opened a block scalar
	for i, line := range strings.Split(string(ci), "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if block >= 0 && (strings.TrimSpace(line) == "" || indent > block) {
			continue
		}
		block = -1
		m := plainPair.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		switch v := m[2]; {
		case strings.HasPrefix(v, "|") || strings.HasPrefix(v, ">"):
			block = len(m[1])
		case strings.IndexAny(v, `"'[{`) == 0:
		case strings.Contains(v, ": ") || strings.Contains(v, " #"):
			t.Errorf("ci.yml:%d: unquoted value %q contains \": \" or \" #\"; quote it", i+1, v)
		}
	}
}

// artefactLoop matches the study list of ci.yml's step that regenerates the
// recorded artefacts.
var artefactLoop = regexp.MustCompile(`(?s)name: Recorded artefacts regenerate byte for byte.*?for study in ([^;\n]*); do`)

// fig1Check matches the CI step that re-verifies fig1's artefact.
var fig1Check = regexp.MustCompile(`(?m)^\s*run: go run \./cmd/hdcbench -check -exp fig1$`)

// TestCIArtefactLoopCoversTheManifest: the CI step that re-verifies the
// recorded artefacts checks every study exp.Manifest records, bar fig1 (two
// minutes alone, checked by a step of its own in a parallel job), and
// nothing else, so a study added to the manifest, or dropped from the loop,
// cannot go unchecked.
func TestCIArtefactLoopCoversTheManifest(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	m := artefactLoop.FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no `for study in ...; do` loop in the step \"Recorded artefacts regenerate byte for byte\"")
	}
	loop := strings.Fields(string(m[1]))
	var want []string
	for _, a := range exp.Manifest {
		for _, s := range a.Studies {
			if s != "fig1" {
				want = append(want, s)
			}
		}
	}
	slices.Sort(loop)
	slices.Sort(want)
	if !slices.Equal(loop, want) {
		t.Errorf("ci.yml's artefact loop checks %q;\nthe manifest records %q (fig1 excepted)", loop, want)
	}
	if !fig1Check.Match(ci) {
		t.Error("ci.yml has no step `run: go run ./cmd/hdcbench -check -exp fig1`")
	}
}
