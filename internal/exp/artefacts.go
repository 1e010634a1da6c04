package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Artefact names one committed file under results/ with what produced it,
// so hdcbench -check can regenerate it and compare bytes.
type Artefact struct {
	File string
	// Studies is the one study whose -json rows a .json file holds, or the
	// studies whose printed sections a .txt file holds, in file order.
	Studies []string
	// Config is the scale and seed the file was recorded at.
	Config Config
}

// Manifest lists every recorded run under results/ (seed 7 is what
// hdcbench's -fault-seed defaulted to when they were recorded).
var Manifest = []Artefact{
	{File: "fleet-rollout.json", Studies: []string{"fleet"}, Config: Config{Scale: Quick, Seed: 7}},
	{File: "storm.json", Studies: []string{"storm"}, Config: Config{Scale: Default, Seed: 13}},
	{File: "topology.json", Studies: []string{"topology"}, Config: Config{Scale: Default, Seed: 7}},
	{File: "membership-scaling.json", Studies: []string{"member-scaling"}, Config: Config{Scale: Default, Seed: 7}},
	{File: "chaos.json", Studies: []string{"chaos"}, Config: Config{Scale: Default, Seed: 7}},
	{File: "ckpt.json", Studies: []string{"ckpt"}, Config: Config{Scale: Default, Seed: 7}},
	{File: "detector.json", Studies: []string{"detector"}, Config: Config{Scale: Default, Seed: 7}},
	{File: "partition.json", Studies: []string{"partition"}, Config: Config{Scale: Default, Seed: 7}},
	{File: "hdcbench-default.txt", Config: Config{Scale: Default, Seed: 7}, Studies: []string{
		"fig1", "fig345", "fig6789", "tab1", "fig10", "fig11", "fig12", "ablation", "rack", "fig13"}},
}

// EncodeRows renders a study's rows as -json writes them.
func EncodeRows(rows any) ([]byte, error) {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// sectionMark opens every section Study.Report prints.
const sectionMark = "\n===== "

// pieces cuts a's committed file into what each of its studies recorded: a
// .json file whole, a transcript at its section headers.
func (a Artefact) pieces(raw string) ([]string, error) {
	if filepath.Ext(a.File) == ".json" {
		return []string{raw}, nil
	}
	parts := strings.Split(raw, sectionMark)
	if parts[0] != "" || len(parts) != len(a.Studies)+1 {
		return nil, fmt.Errorf("%d sections after %q, the manifest records %q", len(parts)-1, parts[0], a.Studies)
	}
	for i, name := range a.Studies {
		parts[i+1] = sectionMark + parts[i+1]
		if !strings.HasPrefix(parts[i+1], sectionMark+name+" =====\n") {
			return nil, fmt.Errorf("section %d is not %q", i+1, name)
		}
	}
	return parts[1:], nil
}

// regenerate runs one of a's studies and returns the bytes a records of it.
func (a Artefact) regenerate(name string) (string, error) {
	// The manifest names only studies of the table (a test holds it to that).
	s := Studies[slices.IndexFunc(Studies, func(s Study) bool { return s.Name == name })]
	var buf bytes.Buffer
	cfg := a.Config
	cfg.W = &buf
	rows, err := s.Report(cfg)
	if err != nil || filepath.Ext(a.File) != ".json" {
		return buf.String(), err
	}
	data, err := EncodeRows(rows)
	return string(data), err
}

// firstDiff locates the first line on which two texts differ (0: none);
// where one text ends early, the rest of the other is the difference.
func firstDiff(recorded, regenerated string) (line int, rec, regen string) {
	if recorded == regenerated {
		return 0, "", ""
	}
	a, b := strings.Split(recorded, "\n"), strings.Split(regenerated, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i + 1, a[i], b[i]
		}
	}
	n := min(len(a), len(b))
	return n + 1, strings.Join(a[n:], "\n"), strings.Join(b[n:], "\n")
}

// CheckArtefacts regenerates in memory every manifest artefact under dir
// that study only produced ("all": every one) and byte-compares it with the
// committed file. Each piece gets one line on w — two more, with the first
// differing line, when it drifted — and any drift is an error.
func CheckArtefacts(w io.Writer, dir, only string) error {
	checked, drifted := 0, 0
	for _, a := range Manifest {
		if only != "all" && !slices.Contains(a.Studies, only) {
			continue
		}
		path := filepath.Join(dir, a.File)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pieces, err := a.pieces(string(raw))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		line := 1 // of the file, where the piece starts
		for i, name := range a.Studies {
			start := line
			line += strings.Count(pieces[i], "\n")
			if only != "all" && only != name {
				continue
			}
			got, err := a.regenerate(name)
			if err != nil {
				return fmt.Errorf("%s [%s]: %w", path, name, err)
			}
			checked++
			n, rec, regen := firstDiff(pieces[i], got)
			if n == 0 {
				fmt.Fprintf(w, "ok     %s [%s]\n", path, name)
				continue
			}
			drifted++
			fmt.Fprintf(w, "DRIFT  %s [%s] line %d\n  recorded:    %s\n  regenerated: %s\n",
				path, name, start+n-1, rec, regen)
		}
	}
	switch {
	case drifted > 0:
		return fmt.Errorf("%d of %d recorded artefacts drifted from what the tree regenerates", drifted, checked)
	case checked == 0:
		return fmt.Errorf("no committed artefact records study %q", only)
	}
	return nil
}
