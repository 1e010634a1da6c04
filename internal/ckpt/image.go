// Package ckpt is the cross-ISA checkpoint/restore subsystem: it serialises
// a quiesced process snapshot (kernel.Snapshot) into a portable, ISA-neutral
// image with a versioned header and per-section CRC32 checksums, and manages
// checkpoint-based crash recovery on a cluster.
//
// The image realises the paper's Tᵢ = ⟨Lᵢ, Sᵢ, Rᵢ⟩ / P state model: the P
// sections (pages, filesystem, kernel service state, console output) are
// ISA-neutral and restore verbatim on either machine; the per-thread section
// carries each Sᵢ/Rᵢ (stack half selector, register file, PC) tagged with the
// capture ISA, to be rewritten by xform.Transform at restore time when the
// destination ISA differs.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"heterodc/internal/isa"
	"heterodc/internal/kernel"
	"heterodc/internal/mem"
)

// Magic identifies a checkpoint image ("HDCK").
const Magic uint32 = 0x4B434448

// Version is the current image format version.
const Version uint16 = 1

// Section tags, in encode order.
const (
	TagMeta    = "META" // process-wide kernel service state
	TagThreads = "THRD" // per-thread register files / PCs / status
	TagPages   = "PAGE" // DSM-owned pages (zero-tail-trimmed)
	TagFiles   = "FILE" // container filesystem + fd table
	TagOutput  = "OUTP" // cumulative console output
)

// SectionInfo describes one section of an image header.
type SectionInfo struct {
	Tag   string
	Bytes int
	CRC   uint32
	OK    bool // stored CRC matches the payload
}

// Header is the decoded image header.
type Header struct {
	Version  uint16
	Sections []SectionInfo
}

// TotalBytes sums the section payloads (excluding framing).
func (h *Header) TotalBytes() int {
	n := 0
	for _, s := range h.Sections {
		n += s.Bytes
	}
	return n
}

// --- little-endian buffer helpers ---

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *writer) str(s string) { w.bytes([]byte(s)) }

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: truncated %s at offset %d", what, r.off)
	}
}
func (r *reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		r.fail("field")
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}
func (r *reader) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (r *reader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}
func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail("byte string")
		return nil
	}
	return append([]byte(nil), r.take(n)...)
}
func (r *reader) str() string { return string(r.bytes()) }

// --- encode ---

const (
	flagSerialized = 1 << 0
	flagEagerPages = 1 << 1
)

// Encode serialises a snapshot into the portable image format.
func Encode(s *kernel.Snapshot) []byte {
	var meta writer
	meta.str(s.ImgName)
	meta.u64(uint64(s.Pid))
	meta.u64(floatBits(s.When))
	meta.u64(s.Brk)
	meta.u64(s.RNG)
	meta.i64(s.NextTid)
	meta.i64(s.NextFd)
	var flags uint8
	if s.SerializedMigration {
		flags |= flagSerialized
	}
	if s.EagerPageMigration {
		flags |= flagEagerPages
	}
	meta.u8(flags)

	var thrd writer
	thrd.u32(uint32(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		thrd.i64(t.Tid)
		thrd.u8(uint8(t.Status))
		thrd.u8(uint8(t.Arch))
		thrd.u8(uint8(t.CurHalf))
		thrd.i64(t.JoinTid)
		thrd.i64(t.ExitVal)
		thrd.u64(t.PC)
		thrd.u32(uint32(t.Migrations))
		for _, v := range t.Regs.I {
			thrd.i64(v)
		}
		for _, v := range t.Regs.F {
			thrd.u64(floatBits(v))
		}
	}

	var page writer
	page.u32(uint32(len(s.Pages)))
	for i := range s.Pages {
		p := &s.Pages[i]
		page.u64(p.Index)
		page.bytes(trimZeroTail(p.Data))
	}

	var file writer
	file.u32(uint32(len(s.Files)))
	for i := range s.Files {
		file.str(s.Files[i].Name)
		file.bytes(s.Files[i].Data)
	}
	file.u32(uint32(len(s.FDs)))
	for i := range s.FDs {
		file.i64(s.FDs[i].FD)
		file.str(s.FDs[i].Path)
		file.i64(s.FDs[i].Pos)
	}

	sections := []struct {
		tag     string
		payload []byte
	}{
		{TagMeta, meta.b},
		{TagThreads, thrd.b},
		{TagPages, page.b},
		{TagFiles, file.b},
		{TagOutput, s.Output},
	}
	var out writer
	out.u32(Magic)
	out.u16(Version)
	out.u16(uint16(len(sections)))
	for _, sec := range sections {
		out.b = append(out.b, sec.tag...)
		out.u32(uint32(len(sec.payload)))
		out.u32(crc32.ChecksumIEEE(sec.payload))
		out.b = append(out.b, sec.payload...)
	}
	return out.b
}

// ReadHeader parses and verifies the image framing without decoding
// payloads. Corrupted sections are reported with OK == false.
func ReadHeader(data []byte) (*Header, error) {
	r := &reader{b: data}
	if m := r.u32(); r.err == nil && m != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x (want %#x)", m, Magic)
	}
	h := &Header{Version: r.u16()}
	if r.err == nil && h.Version != Version {
		return nil, fmt.Errorf("ckpt: unsupported image version %d (want %d)", h.Version, Version)
	}
	n := int(r.u16())
	for i := 0; i < n; i++ {
		tag := r.take(4)
		size := int(r.u32())
		crc := r.u32()
		payload := r.take(size)
		if r.err != nil {
			return nil, r.err
		}
		h.Sections = append(h.Sections, SectionInfo{
			Tag:   string(tag),
			Bytes: size,
			CRC:   crc,
			OK:    crc32.ChecksumIEEE(payload) == crc,
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after last section", len(data)-r.off)
	}
	return h, nil
}

// sectionOrder is the one layout Encode writes and Decode accepts.
var sectionOrder = [...]string{TagMeta, TagThreads, TagPages, TagFiles, TagOutput}

// Decode parses an image back into a snapshot, verifying every section's
// checksum. It accepts exactly what Encode writes — the five sections once
// each in order, every payload consumed to its last byte, pages trimmed,
// no unknown flag — so a decoded snapshot re-encodes to the same bytes, and
// anything else, however framed, is an error (FuzzDecode holds it to that).
func Decode(data []byte) (*kernel.Snapshot, error) {
	r := &reader{b: data}
	if m := r.u32(); r.err == nil && m != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x (want %#x)", m, Magic)
	}
	if v := r.u16(); r.err == nil && v != Version {
		return nil, fmt.Errorf("ckpt: unsupported image version %d (want %d)", v, Version)
	}
	if n := int(r.u16()); r.err == nil && n != len(sectionOrder) {
		return nil, fmt.Errorf("ckpt: image has %d sections (want %d)", n, len(sectionOrder))
	}
	s := &kernel.Snapshot{}
	for _, want := range sectionOrder {
		tag := string(r.take(4))
		size := int(r.u32())
		crc := r.u32()
		payload := r.take(size)
		if r.err != nil {
			return nil, r.err
		}
		if tag != want {
			return nil, fmt.Errorf("ckpt: section %q where %s belongs", tag, want)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("ckpt: section %s checksum mismatch (image corrupted)", tag)
		}
		sr := &reader{b: payload}
		switch tag {
		case TagMeta:
			s.ImgName = sr.str()
			s.Pid = int(sr.u64())
			s.When = bitsFloat(sr.u64())
			s.Brk = sr.u64()
			s.RNG = sr.u64()
			s.NextTid = sr.i64()
			s.NextFd = sr.i64()
			flags := sr.u8()
			if flags&^(flagSerialized|flagEagerPages) != 0 {
				return nil, fmt.Errorf("ckpt: unknown process flags %#x", flags)
			}
			s.SerializedMigration = flags&flagSerialized != 0
			s.EagerPageMigration = flags&flagEagerPages != 0
		case TagThreads:
			cnt := int(sr.u32())
			for j := 0; j < cnt && sr.err == nil; j++ {
				var t kernel.ThreadRecord
				t.Tid = sr.i64()
				t.Status = kernel.ThreadStatus(sr.u8())
				t.Arch = isa.Arch(sr.u8())
				t.CurHalf = int(sr.u8())
				t.JoinTid = sr.i64()
				t.ExitVal = sr.i64()
				t.PC = sr.u64()
				t.Migrations = int(sr.u32())
				for ri := range t.Regs.I {
					t.Regs.I[ri] = sr.i64()
				}
				for ri := range t.Regs.F {
					t.Regs.F[ri] = bitsFloat(sr.u64())
				}
				s.Threads = append(s.Threads, t)
			}
		case TagPages:
			cnt := int(sr.u32())
			for j := 0; j < cnt && sr.err == nil; j++ {
				idx := sr.u64()
				trimmed := sr.bytes()
				if len(trimmed) > mem.PageSize {
					return nil, fmt.Errorf("ckpt: page %#x payload exceeds page size", idx)
				}
				if n := len(trimmed); n > 0 && trimmed[n-1] == 0 {
					return nil, fmt.Errorf("ckpt: page %#x payload keeps its zero tail", idx)
				}
				full := make([]byte, mem.PageSize)
				copy(full, trimmed)
				s.Pages = append(s.Pages, kernel.PageRecord{Index: idx, Data: full})
			}
		case TagFiles:
			cnt := int(sr.u32())
			for j := 0; j < cnt && sr.err == nil; j++ {
				name := sr.str()
				s.Files = append(s.Files, kernel.FileRecord{Name: name, Data: sr.bytes()})
			}
			cnt = int(sr.u32())
			for j := 0; j < cnt && sr.err == nil; j++ {
				var fd kernel.FDRecord
				fd.FD = sr.i64()
				fd.Path = sr.str()
				fd.Pos = sr.i64()
				s.FDs = append(s.FDs, fd)
			}
		case TagOutput:
			s.Output = append([]byte(nil), payload...)
			sr.off = len(payload)
		}
		if sr.err != nil {
			return nil, fmt.Errorf("ckpt: section %s: %w", tag, sr.err)
		}
		if sr.off != len(payload) {
			return nil, fmt.Errorf("ckpt: section %s: %d bytes after its last field", tag, len(payload)-sr.off)
		}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after last section", len(data)-r.off)
	}
	return s, nil
}

// WriteFile encodes a snapshot to a file.
func WriteFile(path string, s *kernel.Snapshot) error {
	return os.WriteFile(path, Encode(s), 0o644)
}

// ReadFile loads and decodes an image file.
func ReadFile(path string) (*kernel.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

func trimZeroTail(p []byte) []byte {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
