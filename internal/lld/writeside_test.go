package lld

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// The write side's characterization: one scripted run, recorded request by
// request — every read, write, NVRAM write and drain the backend sees, with
// the CRC of every byte written, in order, and every crash site the run
// passes — and held to a trace kept in testdata. The script exercises each
// way lld puts a segment image or a checkpoint on the platter:
//
//   - an NVRAM flush, then disk partial writes into slot 1 and slot 0,
//   - a seal into slot 1 (data and summary, two requests),
//   - a seal of an unflushed segment through slot 0 (one request),
//   - a checkpoint and a clean Shutdown,
//   - the mount that demotes the shutdown checkpoint,
//   - a flush, a crash, and the chain mount that recovers it.
//
// It runs at DefaultOptions and at the crash harness's geometry (32-KB
// segments, 4-KB summaries), each on a plain disk and behind a volatile
// write cache, where the drains show. A change meant to leave the bytes on
// the platter and the requests that put them there as they were must leave
// every trace as it is.

// traceLog is a backend that writes one line per request to out.
type traceLog struct {
	disk.Backend
	out *strings.Builder
}

func (b *traceLog) ReadAt(p []byte, off int64) error {
	fmt.Fprintf(b.out, "read  %9d +%d\n", off, len(p))
	return b.Backend.ReadAt(p, off)
}

func (b *traceLog) WriteAt(p []byte, off int64) error {
	fmt.Fprintf(b.out, "write %9d +%d crc %08x\n", off, len(p), crc32.Checksum(p, crcTable))
	return b.Backend.WriteAt(p, off)
}

func (b *traceLog) WriteAtNVRAM(p []byte, off int64) error {
	fmt.Fprintf(b.out, "nvram %9d +%d crc %08x\n", off, len(p), crc32.Checksum(p, crcTable))
	return b.Backend.WriteAtNVRAM(p, off)
}

// syncedTraceLog is a traceLog over a volatile write cache: it drains too.
type syncedTraceLog struct {
	*traceLog
	cache *disk.WBCache
}

func (b *syncedTraceLog) Sync() error {
	b.out.WriteString("sync\n")
	return b.cache.Sync()
}

// writeSideScript runs the script on a fresh disk of the given size and
// returns its trace.
func writeSideScript(t *testing.T, opts Options, size int64, cached bool) string {
	t.Helper()
	var out strings.Builder
	d := disk.New(disk.DefaultConfig(size))
	var be disk.Backend = &traceLog{Backend: d, out: &out}
	if cached {
		c := disk.NewWBCache(d, disk.NewRail())
		be = &syncedTraceLog{traceLog: &traceLog{Backend: c, out: &out}, cache: c}
	}
	opts.CrashHook = func(site string) { fmt.Fprintf(&out, "site  %s\n", site) }
	step := func(s string) { fmt.Fprintf(&out, "# %s\n", s) }
	// The NVRAM holds the first flush (one 1-KB block and its records) and
	// no later one.
	opts.NVRAMBytes = 2 << 10

	step("format")
	if err := Format(be, opts); err != nil {
		t.Fatal(err)
	}
	step("open")
	l, err := Open(be, opts)
	if err != nil {
		t.Fatal(err)
	}
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev := ld.NilBlock
	n := 0
	write := func(size int) {
		b := mustNewBlock(t, l, lid, prev)
		n++
		mustWrite(t, l, b, bytes.Repeat([]byte{byte(n)}, size))
		prev = b
	}
	flush := func() {
		if err := l.Flush(ld.FailPower); err != nil {
			t.Fatal(err)
		}
	}
	// fillUntilSeal writes 4-KB blocks until the open segment is sealed.
	fillUntilSeal := func() {
		seg := l.cur.id
		for l.cur == nil || l.cur.id == seg {
			write(4096)
		}
	}

	step("flush into NVRAM")
	write(1024)
	flush()
	step("flush to disk, slot 1")
	write(4096)
	flush()
	step("flush to disk, slot 0")
	write(4096)
	flush()
	if l.cur.slot != 1 || l.Stats().NVRAMFlushes != 1 || l.Stats().PartialWrites != 2 {
		t.Fatalf("slot %d after %d NVRAM and %d disk flushes, want slot 1 after 1 and 2", l.cur.slot, l.Stats().NVRAMFlushes, l.Stats().PartialWrites)
	}
	step("seal into slot 1")
	fillUntilSeal()
	step("seal through slot 0")
	fillUntilSeal()
	if s := l.Stats(); s.SegmentsSealed != 2 {
		t.Fatalf("%d seals, want 2", s.SegmentsSealed)
	}
	write(1024)
	step("checkpoint")
	l.mu.Lock()
	err = l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	step("clean shutdown")
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	step("open a clean image")
	if l, err = Open(be, opts); err != nil {
		t.Fatal(err)
	}
	lid = mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev = ld.NilBlock
	write(4096)
	write(4096)
	step("flush, then crash")
	flush()
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	step("open a crashed image")
	if l, err = Open(be, opts); err != nil {
		t.Fatal(err)
	}
	step("clean shutdown")
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestWriteSideTrace(t *testing.T) {
	for _, g := range []struct {
		name string
		opts Options
		size int64
	}{
		{"default", DefaultOptions(), 16 << 20},
		{"torture", testOptions(), 4 << 20},
	} {
		for _, cached := range []bool{false, true} {
			name := g.name + "-plain"
			if cached {
				name = g.name + "-cached"
			}
			t.Run(name, func(t *testing.T) {
				got := writeSideScript(t, g.opts, g.size, cached)
				path := filepath.Join("testdata", "writeside", name+".txt")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
					for i := 0; i < len(gl) && i < len(wl); i++ {
						if gl[i] != wl[i] {
							t.Fatalf("trace differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
						}
					}
					t.Fatalf("trace has %d lines, %s has %d", len(gl), path, len(wl))
				}
			})
		}
	}
}
