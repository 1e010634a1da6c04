// Command hdcinspect dumps a multi-ISA binary: the common symbol layout,
// per-ISA code sizes and disassembly, and the stackmap/unwind metadata the
// migration runtime consumes. It is the analogue of objdump/readelf for the
// reproduction's image format.
//
// Usage:
//
//	hdcinspect -bench cg -class S                # symbol table + summary
//	hdcinspect -bench is -func full_verify -dis  # disassemble one function
//	hdcinspect -src prog.c -maps                 # stackmap records
//	hdcinspect -ckpt is.ckpt                     # checkpoint image dump
//	hdcinspect -ckpt is.ckpt -bench is -class S  # ... plus stack frame walks
//	hdcinspect -ckpt is.ckpt -pages              # ... plus resident page map
//	hdcinspect -repro internal/fuzz/testdata/crash-....c  # replay a fuzz repro
//	hdcinspect -member views.json                # membership view matrix
//	hdcinspect -groups groups.json               # sharing-group partition
//	hdcinspect -topo fattree -nodes 12 -racks 4 -oversub 4  # fabric dump
//
// -topo builds the named fabric, dumps every route hop by hop, runs a
// deterministic all-pairs page exchange and prints per-link utilisation.
// -cut-uplink R (repeatable as a comma list) severs rack R's ToR uplink
// first; if any pair becomes unrouteable the command exits nonzero, so it
// doubles as a reachability audit for planned degraded fabrics.
//
// -pages lists every resident DSM page in the image; after a node is
// declared dead, the crash-sweep drops its copies, so an image captured
// post-declaration must be missing the pages the dead node held exclusively.
//
// -member renders a membership dump written by hdcrun -member-out: the
// observer x target view matrix, per-node incarnation/quorum state, and a
// divergence report. It exits nonzero if the dump shows a split brain — two
// quorum-holding observers disagreeing on whether a node is dead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"heterodc/internal/ckpt"
	"heterodc/internal/core"
	"heterodc/internal/fuzz"
	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/link"
	"heterodc/internal/mem"
	"heterodc/internal/member"
	"heterodc/internal/npb"
	"heterodc/internal/topo"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	class := flag.String("class", "S", "problem class")
	threads := flag.Int("threads", 1, "threads")
	srcPath := flag.String("src", "", "mini-C source file")
	fn := flag.String("func", "", "restrict to one function")
	dis := flag.Bool("dis", false, "disassemble code")
	maps := flag.Bool("maps", false, "dump stackmap/unwind metadata")
	ckptPath := flag.String("ckpt", "", "checkpoint image file to dump (add -bench/-src for frame walks)")
	pages := flag.Bool("pages", false, "with -ckpt: list the resident DSM pages (sweep-audit view)")
	reproPath := flag.String("repro", "", "fuzz corpus entry to replay through the differential oracle")
	memberPath := flag.String("member", "", "membership view dump (hdcrun -member-out) to render")
	groupsPath := flag.String("groups", "", "sharing-group dump (hdcrun -groups-out) to render")
	topoKind := flag.String("topo", "", "fabric kind to dump (fattree)")
	topoNodes := flag.Int("nodes", 12, "with -topo: node count")
	topoRacks := flag.Int("racks", 0, "with -topo: rack count (0: default)")
	topoOversub := flag.Float64("oversub", 0, "with -topo: ToR uplink oversubscription ratio (0: default)")
	cutUplink := flag.String("cut-uplink", "", "with -topo: comma list of racks whose ToR uplink is severed")
	flag.Parse()

	if *reproPath != "" {
		inspectRepro(*reproPath)
		return
	}
	if *memberPath != "" {
		inspectMember(*memberPath)
		return
	}
	if *groupsPath != "" {
		inspectGroups(*groupsPath)
		return
	}
	if *topoKind != "" {
		inspectTopo(*topoKind, *topoNodes, *topoRacks, *topoOversub, *cutUplink)
		return
	}

	var img *link.Image
	var err error
	switch {
	case *srcPath != "":
		src, rerr := os.ReadFile(*srcPath)
		fatal(rerr)
		img, err = core.Build(*srcPath, core.Src(*srcPath, string(src)))
	case *bench != "":
		img, err = npb.Build(npb.Bench(*bench), npb.Class((*class)[0]), *threads)
	case *ckptPath != "":
		// Checkpoint-only mode: no binary to rebuild.
	default:
		fmt.Fprintln(os.Stderr, "need -bench, -src or -ckpt")
		os.Exit(2)
	}
	fatal(err)

	if *ckptPath != "" {
		inspectCkpt(*ckptPath, img, *pages)
		return
	}

	fmt.Printf("image %q  aligned=%v  text end %#x  data end %#x\n\n",
		img.Name, img.Aligned, img.TextEnd, img.DataEnd)

	// Symbol table: functions with per-ISA sizes at the common address.
	x86 := img.Prog(isa.X86)
	arm := img.Prog(isa.ARM64)
	var names []string
	for name := range x86.ByName {
		if *fn == "" || *fn == name {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		return x86.ByName[names[i]].Base < x86.ByName[names[j]].Base
	})

	fmt.Printf("%-24s %-12s %10s %10s\n", "function", "address", "x86 bytes", "arm bytes")
	for _, name := range names {
		fx, fa := x86.ByName[name], arm.ByName[name]
		fmt.Printf("%-24s %#-12x %10d %10d\n", name, fx.Base, fx.Size, fa.Size)
	}

	fmt.Printf("\n%-24s %-12s %8s\n", "global", "address", "bytes")
	for _, seg := range img.Data[isa.X86] {
		fmt.Printf("%-24s %#-12x %8d\n", seg.Name, seg.Addr, seg.Size)
	}

	if *dis {
		for _, name := range names {
			for _, arch := range isa.Arches {
				f := img.Prog(arch).ByName[name]
				fmt.Printf("\n--- %s (%s) @ %#x, %d bytes ---\n", name, arch, f.Base, f.Size)
				for i := range f.Code {
					fmt.Printf("  %#08x: %s\n", f.Addr[i], f.Code[i].String())
				}
			}
		}
	}

	if *maps {
		for _, name := range names {
			for _, arch := range isa.Arches {
				fi := img.Prog(arch).SMap.Funcs[name]
				if fi == nil {
					continue
				}
				fmt.Printf("\n--- metadata %s (%s): frame %d bytes, %d saves, %d allocas ---\n",
					name, arch, fi.FrameSize, len(fi.Saves), len(fi.AllocaOffsets))
				for _, s := range fi.Saves {
					fmt.Printf("  save reg %d (float=%v) at fp%+d\n", s.Reg, s.IsFloat, s.Off)
				}
				for i, off := range fi.AllocaOffsets {
					fmt.Printf("  alloca %d: fp%+d (%d bytes)\n", i, off, fi.AllocaSizes[i])
				}
				var ids []int
				for id := range fi.CallSites {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				for _, id := range ids {
					cs := fi.CallSites[id]
					fmt.Printf("  call site %d: retPC %#x, %d live values\n", id, cs.RetPC, len(cs.Live))
					for _, lv := range cs.Live {
						fmt.Printf("    v%d %s @ %s\n", lv.VReg, lv.Type, lv.Loc)
					}
				}
			}
		}
	}
}

// inspectTopo builds the named fabric, dumps every route hop by hop, runs a
// deterministic all-pairs page exchange for the utilisation table, and exits
// nonzero if any ordered pair is unrouteable (the reachability audit for
// planned uplink cuts).
func inspectTopo(kind string, nodes, racks int, oversub float64, cutList string) {
	if kind == topo.KindFlat {
		fatal(fmt.Errorf("-topo flat is the single pipe: there is no fabric to dump"))
	}
	var cuts []int
	if cutList != "" {
		for _, part := range strings.Split(cutList, ",") {
			var r int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &r); err != nil {
				fatal(fmt.Errorf("-cut-uplink: bad rack %q", part))
			}
			cuts = append(cuts, r)
		}
	}
	fab, err := topo.Build(topo.Spec{
		Kind: kind, Racks: racks, Oversub: oversub, CutUplinks: cuts,
	}, nodes)
	fatal(err)
	if fab == nil {
		fatal(fmt.Errorf("-topo %s built no fabric", kind))
	}
	spec := fab.Spec()
	fmt.Printf("fabric %s: %d nodes in %d racks of %d, oversub %g:1, hop %.2fµs, access %.3g B/s\n",
		kind, fab.Nodes(), fab.Racks(), fab.PerRack(), spec.Oversub,
		spec.HopLatencySec*1e6, spec.AccessBytesPerSec)
	if len(cuts) > 0 {
		fmt.Printf("cut uplinks: racks %v\n", cuts)
	}
	fmt.Printf("min latency: %.3fµs\n\n", fab.MinLatency()*1e6)

	name := map[int]string{}
	for _, ls := range fab.LinkStats() {
		name[ls.ID] = ls.Name
	}
	fmt.Println("routes (hop by hop, idle-fabric estimate for one 4KiB page):")
	for from := 0; from < fab.Nodes(); from++ {
		for to := 0; to < fab.Nodes(); to++ {
			if from == to {
				continue
			}
			ids, ok := fab.Route(from, to)
			if !ok {
				fmt.Printf("  n%-3d -> n%-3d  UNROUTEABLE\n", from, to)
				continue
			}
			hops := make([]string, len(ids))
			for i, id := range ids {
				hops[i] = name[id]
			}
			est := fab.Estimate(0, from, to, 4096)
			fmt.Printf("  n%-3d -> n%-3d  %-40s %8.3fµs\n", from, to, strings.Join(hops, " "), est*1e6)
		}
	}

	// Deterministic all-pairs exchange: every ordered pair ships one page
	// at t=0, in pair order, so queueing (and thus the utilisation table)
	// is identical on every run.
	horizon := 0.0
	for from := 0; from < fab.Nodes(); from++ {
		for to := 0; to < fab.Nodes(); to++ {
			if from == to {
				continue
			}
			if _, ok := fab.Route(from, to); !ok {
				continue
			}
			if d := fab.Transmit(0, from, to, 4096); d > horizon {
				horizon = d
			}
		}
	}
	fmt.Printf("\nall-pairs exchange (one 4KiB page per routeable pair, drained in %.3fµs):\n", horizon*1e6)
	fmt.Printf("  %-14s %6s %10s %10s %7s %10s %6s\n",
		"link", "msgs", "bytes", "busy µs", "util", "queue µs", "queued")
	for _, ls := range fab.LinkStats() {
		util := 0.0
		if horizon > 0 {
			util = ls.BusySec / horizon
		}
		fmt.Printf("  %-14s %6d %10d %10.3f %6.1f%% %10.3f %6d\n",
			ls.Name, ls.Msgs, ls.Bytes, ls.BusySec*1e6, util*100, ls.QueueSec*1e6, ls.Queued)
	}

	if pairs := fab.UnrouteablePairs(); len(pairs) > 0 {
		fmt.Printf("\nUNROUTEABLE: %d ordered pairs cannot reach each other: %v\n", len(pairs), pairs)
		os.Exit(1)
	}
	fmt.Println("\nall pairs routeable")
}

// inspectRepro pretty-prints a fuzz corpus entry and replays it through the
// full differential oracle, printing one digest line per execution mode. A
// still-diverging repro exits nonzero so the command doubles as a bisection
// probe while a bug is being fixed.
func inspectRepro(path string) {
	data, err := os.ReadFile(path)
	fatal(err)
	src := string(data)

	seed, feats := fuzz.ParseHeader(src)
	lines := strings.Count(src, "\n")
	fmt.Printf("corpus entry %s: %d bytes, %d lines\n", path, len(src), lines)
	if seed != 0 {
		fmt.Printf("  generator seed %d", seed)
		if len(feats) > 0 {
			fmt.Printf("  features: %s", strings.Join(feats, " "))
		}
		fmt.Println()
	}
	fmt.Println()
	for i, line := range strings.Split(strings.TrimRight(src, "\n"), "\n") {
		fmt.Printf("%4d | %s\n", i+1, line)
	}

	v, err := fuzz.RunSource(src, fuzz.OracleOptions{})
	fatal(err)
	ref := v.Ref()
	fmt.Printf("\n%d migration points, %d checkpoint images, reference %.6fs simulated\n\n",
		v.Points, v.Images, v.RefSeconds)
	fmt.Printf("%-20s %-5s %5s %8s %7s  %s\n", "mode", "ok", "exit", "bytes", "migs", "output digest")
	for _, r := range v.Runs {
		marker := ""
		if r.Digest() != ref.Digest() {
			marker = "  <-- DIVERGED"
		}
		fmt.Printf("%-20s %-5v %5d %8d %7d  %s%s\n",
			r.Mode, r.OK, r.Exit, len(r.Output), r.Migrations, r.Digest(), marker)
	}
	if v.Diverged {
		fmt.Println()
		for _, d := range v.Diffs {
			fmt.Printf("DIVERGENCE: %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Println("\nall modes byte-identical")
}

// inspectGroups renders a sharing-group dump (kernel.GroupDump JSON from
// hdcrun -groups-out): the partition the parallel engine would fan out at
// the sampled instant, and for each multi-node group the per-layer merges
// that folded it — whether process footprints (threads, DSM residents,
// pending migrations), in-flight messages, or shared fabric uplinks carried
// the sharing. The merge list is a spanning forest, so a group of k nodes
// always shows exactly k-1 merges.
func inspectGroups(path string) {
	data, err := os.ReadFile(path)
	fatal(err)
	var d kernel.GroupDump
	fatal(json.Unmarshal(data, &d))
	if d.Nodes <= 0 || len(d.Groups) == 0 {
		fatal(fmt.Errorf("%s: not a sharing-group dump (nodes=%d, groups=%d)", path, d.Nodes, len(d.Groups)))
	}

	fmt.Printf("sharing-group dump %s: %d nodes in %d groups at t=%.6fs\n\n",
		path, d.Nodes, len(d.Groups), d.Time)
	groupOf := make([]int, d.Nodes)
	for g, nodes := range d.Groups {
		for _, n := range nodes {
			if n < 0 || n >= d.Nodes {
				fatal(fmt.Errorf("%s: node %d out of range", path, n))
			}
			groupOf[n] = g
		}
	}
	perGroup := make([]map[string]int, len(d.Groups))
	totals := map[string]int{}
	for _, m := range d.Merges {
		if m.A < 0 || m.A >= d.Nodes || m.B < 0 || m.B >= d.Nodes {
			fatal(fmt.Errorf("%s: merge joins nodes %d and %d, out of range", path, m.A, m.B))
		}
		g := groupOf[m.A]
		if perGroup[g] == nil {
			perGroup[g] = map[string]int{}
		}
		perGroup[g][m.Layer]++
		totals[m.Layer]++
	}
	layers := []string{"footprint", "in-flight", "fabric"}
	for g, nodes := range d.Groups {
		fmt.Printf("group %-3d %v", g, nodes)
		if len(nodes) > 1 {
			var parts []string
			for _, l := range layers {
				if c := perGroup[g][l]; c > 0 {
					parts = append(parts, fmt.Sprintf("%s x%d", l, c))
				}
			}
			fmt.Printf("  folded by: %s", strings.Join(parts, ", "))
		}
		fmt.Println()
	}
	if len(d.Merges) > 0 {
		fmt.Println("\nmerges (a spanning forest of the sharing graph):")
		for _, m := range d.Merges {
			fmt.Printf("  %-9s joined nodes %d and %d\n", m.Layer, m.A, m.B)
		}
	}
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %d", l, totals[l]))
	}
	fmt.Printf("\nmerges by layer: %s\n", strings.Join(parts, ", "))
}

// inspectMember renders a membership dump (member.ViewDump JSON from hdcrun
// -member-out): per-node incarnation/quorum state, the observer x target
// view matrix, and a divergence report. Divergence where at most one side
// holds quorum is the detector working as designed (a cut minority defers);
// two quorum-holding observers disagreeing on a death is a split brain, and
// the command exits nonzero so it doubles as an artifact audit.
func inspectMember(path string) {
	data, err := os.ReadFile(path)
	fatal(err)
	var d member.ViewDump
	fatal(json.Unmarshal(data, &d))
	if d.Nodes <= 0 || len(d.Views) != d.Nodes {
		fatal(fmt.Errorf("%s: not a membership dump (nodes=%d, views=%d)", path, d.Nodes, len(d.Views)))
	}

	fmt.Printf("membership dump %s: %d nodes at t=%.6fs, verdict quorum %d\n\n",
		path, d.Nodes, d.Time, d.Quorum)
	fmt.Printf("%-6s %5s %9s %6s %7s\n", "node", "inc", "dead-inc", "down", "quorum")
	for i := 0; i < d.Nodes; i++ {
		fmt.Printf("%-6d %5d %9d %6v %7v\n",
			i, d.Incarnations[i], d.DeadIncarnations[i], d.Down[i], d.HasQuorum[i])
	}

	fmt.Printf("\nview matrix (row: observer, column: target; state@incarnation, *=verdict deferred):\n")
	fmt.Printf("%-10s", "")
	for t := 0; t < d.Nodes; t++ {
		fmt.Printf(" %-10s", fmt.Sprintf("node %d", t))
	}
	fmt.Println()
	for o := 0; o < d.Nodes; o++ {
		fmt.Printf("node %-5d", o)
		for t := 0; t < d.Nodes; t++ {
			v := d.Views[o][t]
			cell := fmt.Sprintf("%s@%d", v.State, v.Inc)
			if o == t {
				cell = "self"
			} else if v.Deferred {
				cell += "*"
			}
			fmt.Printf(" %-10s", cell)
		}
		fmt.Println()
	}

	splitBrain := false
	diverged := false
	for t := 0; t < d.Nodes; t++ {
		var deadQ, liveQ, deadNoQ, liveNoQ []int
		for o := 0; o < d.Nodes; o++ {
			if o == t || d.Down[o] {
				continue
			}
			dead := d.Views[o][t].State == "dead"
			switch {
			case dead && d.HasQuorum[o]:
				deadQ = append(deadQ, o)
			case dead:
				deadNoQ = append(deadNoQ, o)
			case d.HasQuorum[o]:
				liveQ = append(liveQ, o)
			default:
				liveNoQ = append(liveNoQ, o)
			}
		}
		if len(deadQ) > 0 && len(liveQ) > 0 {
			splitBrain = true
			fmt.Printf("\nSPLIT-BRAIN: node %d held dead by quorum observers %v but live by quorum observers %v\n",
				t, deadQ, liveQ)
		} else if len(deadQ)+len(deadNoQ) > 0 && len(liveQ)+len(liveNoQ) > 0 {
			diverged = true
			fmt.Printf("\ndivergence (benign): node %d held dead by %v, live by %v — only one side holds quorum\n",
				t, append(deadQ, deadNoQ...), append(liveQ, liveNoQ...))
		}
	}
	switch {
	case splitBrain:
		os.Exit(1)
	case diverged:
		fmt.Println("\nviews diverge, but no split brain: every executed verdict is quorum-backed")
	default:
		fmt.Println("\nall views agree")
	}
}

// inspectCkpt dumps a checkpoint image: header framing with per-section
// checksums, process-wide state, and one line per thread. With img supplied
// (matching -bench/-src), each live thread's stack is walked and symbolised.
// showPages additionally lists the resident page indices, with gaps marked —
// the audit view for the DSM crash-sweep (pages a declared-dead node held
// exclusively must be absent from any image captured after the declaration).
func inspectCkpt(path string, img *link.Image, showPages bool) {
	data, err := os.ReadFile(path)
	fatal(err)
	h, err := ckpt.ReadHeader(data)
	fatal(err)

	fmt.Printf("checkpoint image %s: format v%d, %d bytes (%d payload)\n",
		path, h.Version, len(data), h.TotalBytes())
	for _, s := range h.Sections {
		status := "ok"
		if !s.OK {
			status = "CORRUPT"
		}
		fmt.Printf("  %s %8d bytes  crc=%08x  %s\n", s.Tag, s.Bytes, s.CRC, status)
	}

	s, err := ckpt.Decode(data)
	fatal(err)
	fmt.Printf("\nprocess: img %q pid %d, captured at %.6fs\n", s.ImgName, s.Pid, s.When)
	fmt.Printf("  brk=%#x rng=%#x next-tid=%d next-fd=%d serialized=%v eager-pages=%v\n",
		s.Brk, s.RNG, s.NextTid, s.NextFd, s.SerializedMigration, s.EagerPageMigration)
	fmt.Printf("  pages: %d (%d bytes resident)\n", len(s.Pages), len(s.Pages)*mem.PageSize)
	fmt.Printf("  files: %d, open fds: %d, console output: %d bytes\n",
		len(s.Files), len(s.FDs), len(s.Output))

	if showPages && len(s.Pages) > 0 {
		idx := make([]uint64, len(s.Pages))
		for i, pg := range s.Pages {
			idx[i] = pg.Index
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
		fmt.Printf("\nresident pages (index ranges, %d-byte pages):\n", mem.PageSize)
		for i := 0; i < len(idx); {
			j := i
			for j+1 < len(idx) && idx[j+1] == idx[j]+1 {
				j++
			}
			if i == j {
				fmt.Printf("  %6d           addr %#x\n", idx[i], idx[i]<<mem.PageShift)
			} else {
				fmt.Printf("  %6d - %-6d  addr %#x - %#x\n",
					idx[i], idx[j], idx[i]<<mem.PageShift, idx[j]<<mem.PageShift)
			}
			i = j + 1
		}
	}

	for i := range s.Threads {
		t := &s.Threads[i]
		fmt.Printf("\nthread %d: %s", t.Tid, statusName(t.Status))
		if t.Status == kernel.ThreadExited {
			fmt.Printf(" (exit value %d)\n", t.ExitVal)
			continue
		}
		fmt.Printf("  arch=%s half=%d pc=%#x migrations=%d", t.Arch, t.CurHalf, t.PC, t.Migrations)
		if t.Status == kernel.ThreadBlockedJoin {
			fmt.Printf("  joining tid %d", t.JoinTid)
		}
		fmt.Println()
		if img == nil {
			continue
		}
		frames, err := ckpt.ThreadFrames(img, s, t)
		if err != nil {
			fmt.Printf("  frame walk failed: %v\n", err)
			continue
		}
		for _, f := range frames {
			fmt.Printf("  #%d %-24s pc=%#x fp=%#x\n", f.Depth, f.Func, f.PC, f.FP)
		}
	}
}

func statusName(st kernel.ThreadStatus) string {
	switch st {
	case kernel.ThreadAtPoint:
		return "parked at migration point"
	case kernel.ThreadBlockedJoin:
		return "blocked in join"
	case kernel.ThreadExited:
		return "exited"
	}
	return fmt.Sprintf("status(%d)", st)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcinspect:", err)
		os.Exit(1)
	}
}
