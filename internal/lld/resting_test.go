package lld

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ld"
)

// restingBuffers returns the capacity of every byte slice an instance holds
// in its fields, by path ("fillBuf", "cur.buf", "ra.buf"), following structs
// and pointers to structs but neither the backend, maps, nor slices of
// anything but bytes: what stays in memory between commands besides the
// maps.
func restingBuffers(l *LLD) map[string]int {
	out := make(map[string]int)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && v.Elem().Kind() == reflect.Struct {
				walk(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, v.Field(i))
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Uint8 && v.Cap() > 0 {
				out[path] = v.Cap()
			}
		}
	}
	walk("", reflect.ValueOf(l).Elem())
	return out
}

// checkResting fails unless the only buffers l holds at rest are the open
// segment's (fillBuf, and cur.buf when a segment is open) and the read-ahead
// window; anything else may span at most one block, as a per-block read
// does.
func checkResting(t *testing.T, when string, l *LLD) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	oneBlock := l.lay.maxBlockSize + 2*l.lay.sectorSize
	for path, n := range restingBuffers(l) {
		switch path {
		case "fillBuf", "cur.buf":
			if n > l.lay.segmentSize {
				t.Errorf("%s: the open segment's buffer %s holds %d bytes, more than a segment", when, path, n)
			}
		case "ra.buf":
			if n > readaheadWindow {
				t.Errorf("%s: the read-ahead window holds %d bytes, more than %d", when, n, readaheadWindow)
			}
		default:
			if n > oneBlock {
				t.Errorf("%s: %s holds %d bytes at rest, more than one block's span (%d)", when, path, n, oneBlock)
			}
		}
	}
}

// Between commands an LLD keeps the open segment and its maps, and no work
// buffer: the cleaner's victim image lasts one pass, and the buffers the
// mount's read-back, the scrubber and the per-block reads use go with the
// command that needed them.
func TestRestingMemoryIsTheOpenSegment(t *testing.T) {
	opts := testOptions()
	d, l := newTestLLD(t, 2<<20, opts)
	checkResting(t, "after Format and Open", l)

	ids, want := fillBlocks(t, l, 3*l.lay.dataCap()/4096)
	for i, b := range ids {
		if i%3 != 0 {
			want[b] = bytes.Repeat([]byte{0xB0 | byte(i&0xF)}, 4096)
			mustWrite(t, l, b, want[b])
		}
	}
	moved := l.Stats().BlocksMoved
	if n, err := l.Clean(2); err != nil || n == 0 {
		t.Fatalf("Clean(2) = %d, %v", n, err)
	}
	if l.Stats().BlocksMoved == moved {
		t.Fatal("the cleaning pass moved no block")
	}
	checkResting(t, "after a Clean that moved blocks", l)

	for i, b := range ids[:8] {
		want[b] = bytes.Repeat([]byte{0xD0 | byte(i)}, 4096)
		mustWrite(t, l, b, want[b])
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	l = reopenCrashed(t, d, l)
	if s := l.Stats(); s.VerifiedBlocks == 0 {
		t.Fatalf("the crash mount read back no block (%d segments skipped under the mark)", s.VerifySkippedSegments)
	}
	checkResting(t, "after a crash mount that read back a segment", l)
	if res, err := l.Scrub(); err != nil || res.Blocks == 0 || len(res.Corrupt) != 0 {
		t.Fatalf("Scrub: %d blocks checked, corrupt %v, %v", res.Blocks, res.Corrupt, err)
	}
	checkResting(t, "after a Scrub", l)
	checkReads(t, l, want)
}
