package lld

import (
	"bytes"
	"testing"

	"repro/internal/ld"
)

// TestNVRAMAbsorbsPartialWrites: with modeled NVRAM, small flushes cost no
// disk operations yet remain durable across a crash (§5.3, Baker et al.).
func TestNVRAMAbsorbsPartialWrites(t *testing.T) {
	o := testOptions()
	o.NVRAMBytes = 64 * 1024
	d, l := newTestLLD(t, 8<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})

	before := d.Stats().Writes
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, []byte("held in nvram"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Writes - before; got != 0 {
		t.Fatalf("NVRAM flush issued %d disk writes", got)
	}
	if l.Stats().NVRAMFlushes != 1 {
		t.Fatalf("NVRAMFlushes=%d", l.Stats().NVRAMFlushes)
	}

	// Durable across a crash nonetheless.
	want := captureState(t, l)
	l2 := crashAndRecover(t, d, l)
	diffState(t, want, captureState(t, l2), "nvram durability")
}

// TestNVRAMFallsBackWhenFull: fills beyond NVRAMBytes go to the disk as
// ordinary partial writes.
func TestNVRAMFallsBackWhenFull(t *testing.T) {
	o := testOptions()
	o.NVRAMBytes = 8 * 1024
	_, l := newTestLLD(t, 8<<20, o)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	prev := ld.NilBlock
	for i := 0; i < 3; i++ { // 12 KB > 8 KB of NVRAM
		b := mustNewBlock(t, l, lid, prev)
		mustWrite(t, l, b, bytes.Repeat([]byte{1}, 4096))
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.NVRAMFlushes != 0 {
		t.Fatalf("oversized fill absorbed by NVRAM (%d)", st.NVRAMFlushes)
	}
	if st.PartialWrites != 1 {
		t.Fatalf("PartialWrites=%d", st.PartialWrites)
	}
}
