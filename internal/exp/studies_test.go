package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const resultsDir = "../../results"

// Every study's Reads names a Config field other than the two every study
// is handed, and every other field is read by some study: hdcbench rejects
// the flags of the fields a study leaves out, so a wrong name there would
// reject a flag that works or pass one that is ignored.
func TestStudyReadsNameConfigFields(t *testing.T) {
	read := map[string]bool{}
	for _, s := range Studies {
		for _, f := range s.Reads {
			if _, ok := reflect.TypeOf(Config{}).FieldByName(f); !ok || f == "Scale" || f == "W" {
				t.Errorf("study %s reads %q, which is not a Config field a flag can set", s.Name, f)
			}
			read[f] = true
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.Name != "Scale" && f.Name != "W" && !read[f.Name] {
			t.Errorf("no study reads Config.%s", f.Name)
		}
	}
}

// The table is what -exp all runs and what -check looks studies up in: names
// must be unique, and the recorded transcript's sections must come in table
// order, or regenerating it with -exp all would not reproduce the file.
func TestStudyTableNamesAndOrder(t *testing.T) {
	index := map[string]int{}
	for i, s := range Studies {
		if _, dup := index[s.Name]; dup {
			t.Errorf("study %q appears twice", s.Name)
		}
		index[s.Name] = i
		if s.Run == nil {
			t.Errorf("study %q has no Run", s.Name)
		}
	}
	for _, a := range Manifest {
		last := -1
		for _, name := range a.Studies {
			i, ok := index[name]
			if !ok {
				t.Errorf("%s: the manifest names an unknown study %q", a.File, name)
			} else if i <= last {
				t.Errorf("%s: section %q is out of table order", a.File, name)
			}
			last = i
		}
	}
}

// Every file under results/ is in the manifest (so -check covers it) and
// every manifest entry exists.
func TestManifestCoversResults(t *testing.T) {
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, listed []string
	for _, e := range entries {
		if e.Name() != "README.md" {
			onDisk = append(onDisk, e.Name())
		}
	}
	for _, a := range Manifest {
		listed = append(listed, a.File)
	}
	slices.Sort(listed)
	if !slices.Equal(onDisk, listed) {
		t.Errorf("results/ holds %q, the manifest lists %q", onDisk, listed)
	}
}

func TestPieces(t *testing.T) {
	a := Artefact{File: "x.txt", Studies: []string{"a", "b"}}
	got, err := a.pieces("\n===== a =====\nx\ny\n\n===== b =====\nz\n")
	if want := []string{"\n===== a =====\nx\ny\n", "\n===== b =====\nz\n"}; err != nil || !slices.Equal(got, want) {
		t.Errorf("got %q, %v; want %q", got, err, want)
	}
	for _, bad := range []string{
		"stray\n===== a =====\n\n===== b =====\n", // text before the first header
		"\n===== a =====\n",                       // a section short
		"\n===== b =====\n\n===== a =====\n",      // out of order
	} {
		if _, err := a.pieces(bad); err == nil {
			t.Errorf("pieces(%q) accepted", bad)
		}
	}
}

func TestFirstDiff(t *testing.T) {
	cases := []struct {
		rec, regen string
		line       int
	}{
		{"a\nb\n", "a\nb\n", 0},
		{"a\nb\n", "a\nc\n", 2},
		{"a\n", "a\nb\n", 2},
		{"a\nEXIT: 0\n", "a\n", 2},
		{"a\n", "a", 2},
	}
	for _, c := range cases {
		if line, _, _ := firstDiff(c.rec, c.regen); line != c.line {
			t.Errorf("firstDiff(%q, %q) = line %d, want %d", c.rec, c.regen, line, c.line)
		}
	}
}

// EXPERIMENTS.md quotes the Figure 12 and 13 summaries of the recorded run;
// -check keeps the recorded run honest, this keeps the prose honest.
func TestExperimentsQuoteTheRecordedSummaries(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(resultsDir, "hdcbench-default.txt"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	number := regexp.MustCompile(`[0-9]+\.[0-9]+[%x]`)
	for _, fig := range []struct{ study, heading string }{
		{"fig12", "## Figure 12"}, {"fig13", "## Figure 13"},
	} {
		summary := string(raw[bytes.Index(raw, []byte(sectionMark+fig.study)):])
		_, summary, _ = strings.Cut(summary, " summary")
		summary, _, _ = strings.Cut(summary, sectionMark)
		quoted := number.FindAllString(summary, -1)
		if len(quoted) < 2 {
			t.Fatalf("%s: no summary numbers in the recorded section", fig.study)
		}
		_, prose, _ := strings.Cut(string(doc), fig.heading)
		prose, _, _ = strings.Cut(prose, "\n## ")
		for _, q := range quoted {
			if !strings.Contains(prose, q) {
				t.Errorf("EXPERIMENTS.md %q does not quote the recorded %s", fig.heading, q)
			}
		}
	}
}
