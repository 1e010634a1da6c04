package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"heterodc/internal/ckpt"
	"heterodc/internal/kernel"
)

// FuzzDecode feeds Decode hostile images. Whatever the bytes, it returns an
// error or a snapshot that Encode turns back into exactly those bytes; it
// never panics. Seeds: a real image, and the damaged copies
// TestImageRoundTripAndCorruption uses.
func FuzzDecode(f *testing.F) {
	data := ckpt.Encode(tortureSnapshot(f))
	f.Add(data)
	for _, bad := range damagedImages(data) {
		f.Add(bad)
	}
	for _, tc := range nonCanonicalImages(f) {
		f.Add(tc.image)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		s, err := ckpt.Decode(image)
		if err != nil {
			return
		}
		if again := ckpt.Encode(s); !bytes.Equal(again, image) {
			t.Fatalf("accepted a %d-byte image that re-encodes to %d different bytes", len(image), len(again))
		}
	})
}

type section struct {
	tag     string
	payload []byte
}

// frame wraps sections the way Encode does, checksums and all, so a hostile
// image gets past the CRCs to the decoders behind them.
func frame(sections ...section) []byte {
	out := binary.LittleEndian.AppendUint32(nil, ckpt.Magic)
	out = binary.LittleEndian.AppendUint16(out, ckpt.Version)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(sections)))
	for _, sec := range sections {
		out = append(out, sec.tag...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sec.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(sec.payload))
		out = append(out, sec.payload...)
	}
	return out
}

// sectionsOf splits a well-formed image back into its sections.
func sectionsOf(tb testing.TB, image []byte) []section {
	tb.Helper()
	h, err := ckpt.ReadHeader(image)
	if err != nil {
		tb.Fatal(err)
	}
	var out []section
	off := 8
	for _, s := range h.Sections {
		out = append(out, section{s.Tag, image[off+12 : off+12+s.Bytes]})
		off += 12 + s.Bytes
	}
	return out
}

type impostor struct {
	name, want string // want: what Decode's error must mention
	image      []byte
}

// nonCanonicalImages are correctly framed and checksummed images that Encode
// would never write — the kind a bit flip cannot produce but an adversary
// can.
func nonCanonicalImages(tb testing.TB) []impostor {
	tb.Helper()
	snap := &kernel.Snapshot{
		ImgName: "x", Pid: 3, NextTid: 1, NextFd: 3,
		Threads: []kernel.ThreadRecord{{Tid: 0, PC: 0x400000}},
		Pages:   []kernel.PageRecord{{Index: 7, Data: append([]byte{1, 2, 3}, make([]byte, 4093)...)}},
		Output:  []byte("hi\n"),
	}
	good := ckpt.Encode(snap)
	if back, err := ckpt.Decode(good); err != nil || !bytes.Equal(ckpt.Encode(back), good) {
		tb.Fatalf("the well-formed image does not round-trip: %v", err)
	}
	secs := sectionsOf(tb, good)
	with := func(i int, payload []byte) []section {
		out := append([]section(nil), secs...)
		out[i].payload = payload
		return out
	}
	meta, pages := secs[0].payload, secs[2].payload
	return []impostor{
		{"section missing", "sections", frame(secs[:4]...)},
		{"section repeated", "belongs", frame(secs[0], secs[0], secs[2], secs[3], secs[4])},
		{"sections reordered", "belongs", frame(secs[1], secs[0], secs[2], secs[3], secs[4])},
		{"unknown section", "belongs", frame(secs[0], secs[1], secs[2], secs[3], section{"EVIL", nil})},
		{"bytes after the last section", "trailing", append(frame(secs...), 0)},
		{"bytes after a section's last field", "after its last field", frame(with(0, append(append([]byte(nil), meta...), 9))...)},
		{"unknown flag", "flags", frame(with(0, append(append([]byte(nil), meta[:len(meta)-1]...), 0x80))...)},
		{"page with its zero tail", "zero tail", frame(with(2, zeroTailed(pages))...)},
		{"thread count past the payload", "truncated", frame(with(1, []byte{0xff, 0xff, 0xff, 0x7f})...)},
	}
}

// Every impostor is refused, not decoded into a snapshot that means
// something else.
func TestDecodeRejectsNonCanonicalImages(t *testing.T) {
	for _, tc := range nonCanonicalImages(t) {
		s, err := ckpt.Decode(tc.image)
		if err == nil {
			t.Errorf("%s: accepted (re-encodes identically: %v)", tc.name, bytes.Equal(ckpt.Encode(s), tc.image))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// zeroTailed rewrites a one-page PAGE payload so the page's bytes keep one
// zero Encode would have trimmed.
func zeroTailed(pages []byte) []byte {
	out := append([]byte(nil), pages...)
	n := binary.LittleEndian.Uint32(out[12:])
	binary.LittleEndian.PutUint32(out[12:], n+1)
	return append(out, 0)
}
