package main

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/mdisk"
)

// lld and mdisk change behaviour on type assertions for disk.Syncer and
// disk.MultiReader, so the wrapper must offer each exactly when the
// backend it wraps does.
func TestBackendWrapperForwardsOptionalInterfaces(t *testing.T) {
	platter := func() *disk.Disk { return disk.New(disk.DefaultConfig(8 << 20)) }
	mirror, err := mdisk.NewMirror(platter(), platter())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		inner         disk.Backend
		syncer, multi bool
	}{
		{"platter", platter(), false, false},
		{"write-back cache", disk.NewWBCache(platter(), disk.NewRail()), true, false},
		{"mirror", mirror, true, true},
	} {
		_, s := c.inner.(disk.Syncer)
		_, m := c.inner.(disk.MultiReader)
		if s != c.syncer || m != c.multi {
			t.Fatalf("%s: test premise wrong: inner has syncer=%v multi=%v", c.name, s, m)
		}
		w, _ := wrapBackend(newTracer(), c.inner, false, 512<<10, 8<<10)
		_, s = w.(disk.Syncer)
		_, m = w.(disk.MultiReader)
		if s != c.syncer || m != c.multi {
			t.Errorf("%s: wrapper has syncer=%v multi=%v, inner has %v %v", c.name, s, m, c.syncer, c.multi)
		}
	}
}

func TestBackendWrapperCountsAndSpans(t *testing.T) {
	tr := newTracer()
	tr.enabled.Store(true)
	d := disk.New(disk.DefaultConfig(8 << 20))
	w, st := wrapBackend(tr, d, false, 512<<10, 8<<10)
	buf := make([]byte, 512<<10)
	for _, n := range []int{512, 8 << 10, 100 << 10, 300 << 10, 512 << 10} {
		if err := w.WriteAt(buf[:n], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ReadAt(buf[:4096], 0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAtNVRAM(buf[:512], 0); err != nil {
		t.Fatal(err)
	}
	if got := st.values(); got != (devCounts{1, 4096, 5, 512 + 8<<10 + 100<<10 + 300<<10 + 512<<10, 2, 1, 2, 1, 0}) {
		t.Errorf("counters %v", got)
	}
	// The test goroutine owns no thread: everything is background.
	tt := tr.collect()
	if tt.bg[spDevWrite].count != 5 || tt.bg[spDevRead].count != 1 || tt.bg[spDevNVRAM].count != 1 {
		t.Errorf("spans: write %d read %d nvram %d", tt.bg[spDevWrite].count, tt.bg[spDevRead].count, tt.bg[spDevNVRAM].count)
	}
	if w.Capacity() != d.Capacity() || w.Now() != d.Now() {
		t.Error("Capacity/Now not forwarded")
	}
}

func TestTracedLDForwardsAndNamesSpans(t *testing.T) {
	d := disk.New(disk.DefaultConfig(16 << 20))
	if err := lld.Format(d, lld.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, lld.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Shutdown(false)
	tr := newTracer()
	tr.enabled.Store(true)
	th := tr.newThread("t")
	th.adopt()
	var top ld.Disk = &tracedLD{Disk: l, tr: tr}
	if _, ok := top.(ld.MultiReadDisk); !ok {
		t.Fatal("wrapper hides ld.MultiReadDisk")
	}
	lid, err := top.NewList(ld.NilList, ld.ListHints{Cluster: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := top.NewBlock(lid, ld.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xa5}, 4096)
	if err := top.Write(b, want); err != nil {
		t.Fatal(err)
	}
	if err := top.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if n, err := top.Read(b, got); err != nil || !bytes.Equal(got[:n], want) {
		t.Fatalf("Read through the wrapper: %d %v", n, err)
	}
	res, err := ld.ReadBlocks(top, []ld.BlockID{b}, [][]byte{got})
	if err != nil || res[0].Err != nil || res[0].N != 4096 {
		t.Fatalf("ReadBlocks through the wrapper: %v %v", res, err)
	}
	tt := tr.collect()
	for k, n := range map[spanKind]int64{spLLDListOp: 1, spLLDAlloc: 1, spLLDWrite: 1, spLLDFlush: 1, spLLDRead: 1, spLLDReadBlocks: 1} {
		if tt.fg[k].count != n {
			t.Errorf("%s: %d spans, want %d", spanNames[k], tt.fg[k].count, n)
		}
	}
}

func TestFrameScanner(t *testing.T) {
	frame := func(status byte, body int) []byte {
		p := make([]byte, 4+9+body)
		binary.LittleEndian.PutUint32(p, uint32(9+body))
		p[4+8] = status
		return p
	}
	stream := append(frame(7, 100), frame(0, 0)...)
	stream = append(stream, frame(3, 5000)...)
	for _, step := range []int{1, 3, 4, 13, 64, len(stream)} {
		var s frameScanner
		var got []byte
		for off := 0; off < len(stream); off += step {
			end := off + step
			if end > len(stream) {
				end = len(stream)
			}
			s.feed(stream[off:end], func(st byte) { got = append(got, st) })
		}
		if !bytes.Equal(got, []byte{7, 0, 3}) || s.frames != 3 {
			t.Errorf("step %d: statuses %v frames %d", step, got, s.frames)
		}
	}
}
