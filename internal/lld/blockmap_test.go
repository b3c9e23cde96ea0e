package lld

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/ld"
)

// A freed id above the last live one stays free once the segment holding
// its tFree is cleaned and reused. The segment is reused only after a
// checkpoint, which records the fresh watermark below the id, so the tAlloc
// still live in another segment lies at or below the floor and no mount
// brings the block back.
func TestFreedIDAboveTheLastLiveOneStaysFree(t *testing.T) {
	opts := segIOOptions()
	d, l := newTestLLD(t, 4<<20, opts)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b1 := mustNewBlock(t, l, lid, ld.NilBlock)
	b2 := mustNewBlock(t, l, lid, b1)
	b3 := mustNewBlock(t, l, lid, b2)
	mustWrite(t, l, b1, []byte("keeps its segment live"))
	w := sealOpen(t, l) // b3's tAlloc, beside live data
	if err := l.DeleteBlock(b3, lid, b2); err != nil {
		t.Fatal(err)
	}
	v := sealOpen(t, l) // b3's tFree, and nothing live

	l = reopenCrashedAfterFlush(t, d, l, opts)
	if l.nextFresh != b3 {
		t.Fatalf("mounted with fresh watermark %d, want the freed id %d", l.nextFresh, b3)
	}
	if l.segs[w].state != segLive || l.segs[w].live == 0 || l.segs[v].state != segLive || l.segs[v].live != 0 {
		t.Fatalf("segments %d and %d mounted as (%d, %d B) and (%d, %d B); want live with data, live without",
			w, v, l.segs[w].state, l.segs[w].live, l.segs[v].state, l.segs[v].live)
	}

	if err := cleanVictim(l, v); err != nil {
		t.Fatal(err)
	}
	reopenSegment(t, l, v, func() { mustWrite(t, l, b2, []byte("lands in the victim")) })

	l = reopenCrashedAfterFlush(t, d, l, opts)
	if _, err := l.Read(b3, make([]byte, 16)); !errors.Is(err, ld.ErrBadBlock) {
		t.Errorf("freed block %d reads with %v after its tFree's segment was cleaned and reused", b3, err)
	}
	if got, err := l.ListBlocks(lid); err != nil || !slices.Equal(got, []ld.BlockID{b1, b2}) {
		t.Errorf("list %d recovered as %v, %v; want [%d %d]", lid, got, err, b1, b2)
	}
}

// A checkpoint states the ids it issued: the loader sizes the block-number
// map to its nextFresh, so it refuses a nextFresh beyond the address space
// and a block at or above nextFresh rather than grow the map for them.
func TestCheckpointRefusesIDsBeyondItsFreshWatermark(t *testing.T) {
	const nextFreshAt = 8 // payload offset of nextFresh: it follows the u64 ts
	cases := []struct {
		name string
		edit func(l *LLD, nextFresh uint32) uint32 // the nextFresh to store
		ok   bool
	}{
		{"unchanged", func(_ *LLD, nf uint32) uint32 { return nf }, true},
		{"past the address space", func(l *LLD, _ uint32) uint32 { return uint32(l.lay.maxBlocks) + 2 }, false},
		{"below an allocated block", func(_ *LLD, nf uint32) uint32 { return nf - 1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, l := newTestLLD(t, 4<<20, testOptions())
			lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
			for pred, i := ld.NilBlock, 0; i < 3; i++ {
				pred = mustNewBlock(t, l, lid, pred)
				mustWrite(t, l, pred, []byte("x"))
			}
			if err := l.Shutdown(true); err != nil {
				t.Fatal(err)
			}
			off := l.lay.checkpointOff + int64(l.ckptSlot)*l.lay.checkpointSize
			ss := l.lay.sectorSize
			head := make([]byte, ss)
			if err := d.ReadAt(head, off); err != nil {
				t.Fatal(err)
			}
			plen := int(binary.LittleEndian.Uint32(head[16:]))
			buf := make([]byte, (checkpointHeaderSize+plen+ss-1)/ss*ss)
			if err := d.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			payload := buf[checkpointHeaderSize : checkpointHeaderSize+plen]
			nf := binary.LittleEndian.Uint32(payload[nextFreshAt:])
			binary.LittleEndian.PutUint32(payload[nextFreshAt:], tc.edit(l, nf))
			binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
			if err := d.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(d, testOptions())
			if tc.ok {
				if err != nil {
					t.Fatalf("the re-checksummed checkpoint does not mount: %v", err)
				}
				if viol := l2.CheckInvariants(); len(viol) != 0 {
					t.Fatalf("invariants: %v", viol)
				}
				return
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("mounted a checkpoint whose nextFresh reads %d: %v", tc.edit(l, nf), err)
			}
		})
	}
}
