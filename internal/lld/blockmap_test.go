package lld

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"repro/internal/disk"
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
			var nf uint32
			rewriteCheckpoint(t, d, l, func(payload []byte) {
				nf = binary.LittleEndian.Uint32(payload[nextFreshAt:])
				binary.LittleEndian.PutUint32(payload[nextFreshAt:], tc.edit(l, nf))
			})

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

// rewriteCheckpoint hands edit the payload of the checkpoint a shut-down l
// wrote last, and writes it back re-checksummed.
func rewriteCheckpoint(t *testing.T, d *disk.Disk, l *LLD, edit func(payload []byte)) {
	t.Helper()
	off := l.lay.checkpointOff + int64(l.ckptSlot)*l.lay.checkpointSize
	ss := l.lay.sectorSize
	head := make([]byte, ss)
	if err := d.ReadAt(head, off); err != nil {
		t.Fatal(err)
	}
	h, _ := readCkptHeader(head)
	buf := make([]byte, h.imageSize(ss))
	if err := d.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	payload, _ := h.payload(buf)
	edit(payload)
	h.crc = crc32.Checksum(payload, crcTable)
	h.put(buf)
	if err := d.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint's list records name each list once, by an id it handed out:
// the loader links them into the list of lists, so it refuses list 0, an id
// at or above the checkpoint's next list id, and an id named twice.
func TestCheckpointRefusesBadListIDs(t *testing.T) {
	const nextListAt = 12 // payload offset of nextList: it follows nextFresh
	cases := []struct {
		name string
		edit func(recs []byte, nextList uint32) // recs: the list records
		ok   bool
	}{
		{"unchanged", func([]byte, uint32) {}, true},
		{"list 0", func(recs []byte, _ uint32) { binary.LittleEndian.PutUint32(recs, 0) }, false},
		{"at the next list id", func(recs []byte, nl uint32) { binary.LittleEndian.PutUint32(recs[listStateEncSize:], nl) }, false},
		{"named twice", func(recs []byte, _ uint32) {
			copy(recs[2*listStateEncSize:2*listStateEncSize+4], recs[:4])
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, l := newTestLLD(t, 4<<20, testOptions())
			pred := ld.NilList
			for i := 0; i < 3; i++ {
				pred = mustNewList(t, l, pred, ld.ListHints{})
			}
			nLists, nSegs := len(l.lists), len(l.segs)
			if err := l.Shutdown(true); err != nil {
				t.Fatal(err)
			}
			rewriteCheckpoint(t, d, l, func(payload []byte) {
				end := len(payload) - 4 - nSegs*segStateEncSize
				recs := payload[end-nLists*listStateEncSize : end]
				tc.edit(recs, binary.LittleEndian.Uint32(payload[nextListAt:]))
			})
			l2, err := Open(d, testOptions())
			if tc.ok {
				if err != nil {
					t.Fatalf("the re-checksummed checkpoint does not mount: %v", err)
				}
				if viol := l2.CheckInvariants(); len(viol) != 0 {
					t.Fatalf("invariants: %v", viol)
				}
				if got, _ := l2.Lists(); len(got) != nLists {
					t.Fatalf("mounted lists %v, want %d", got, nLists)
				}
				return
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("mounted a checkpoint whose list ids were edited (%s): %v", tc.name, err)
			}
		})
	}
}

// A block-map entry holds a size in 16 bits and a location in 32
// (blockInfo): the largest block is 65,535 bytes, and a disk may have as
// many segments as the location addresses at its segment size, 8,191 of
// 512 KB. Both limits are refused at Format, just past the boundary.
func TestNarrowEntryLimits(t *testing.T) {
	for _, tc := range []struct {
		size int
		ok   bool
	}{{math.MaxUint16, true}, {math.MaxUint16 + 1, false}} {
		opts := DefaultOptions()
		opts.MaxBlockSize = tc.size
		dsk := &sparseDisk{capacity: 64 << 20, sectors: make(map[int64][]byte)}
		if err := Format(dsk, opts); (err == nil) != tc.ok {
			t.Errorf("Format with %d-byte blocks: %v, want accepted %v", tc.size, err, tc.ok)
		}
	}

	opts := DefaultOptions()
	lay, err := computeLayout(64<<20, sparseSector, opts)
	if err != nil {
		t.Fatal(err)
	}
	limit := lay.maxSegments()
	if limit != 8191 {
		t.Fatalf("a location addresses %d segments of 512 KB, want 8191", limit)
	}
	// segmentsAt is the segment count a capacity gives, refused or not.
	segmentsAt := func(capacity int64) int {
		lay, err := computeLayout(capacity, sparseSector, opts)
		var geo *GeometryError
		if errors.As(err, &geo) {
			return geo.Segments
		}
		if err != nil {
			t.Fatal(err)
		}
		return lay.nSegments
	}
	// The smallest capacity holding limit+1 segments, to the sector.
	lo, hi := int64(limit)*int64(opts.SegmentSize)/sparseSector, int64(2*limit)*int64(opts.SegmentSize)/sparseSector
	for lo < hi {
		mid := (lo + hi) / 2
		if segmentsAt(mid*sparseSector) > limit {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	over := lo * sparseSector
	if got := segmentsAt(over - sparseSector); got != limit {
		t.Fatalf("one sector less holds %d segments, want %d", got, limit)
	}

	at := &sparseDisk{capacity: over - sparseSector, sectors: make(map[int64][]byte)}
	if err := Format(at, opts); err != nil {
		t.Fatalf("Format of %d segments: %v", limit, err)
	}
	l, err := Open(at, opts)
	if err != nil {
		t.Fatal(err)
	}
	end := l.lay.pack(limit-1, uint32(l.lay.dataCap()))
	if seg, off := l.lay.segOf(end), l.lay.offOf(end); seg != limit-1 || off != uint32(l.lay.dataCap()) {
		t.Fatalf("the last segment's end packs and unpacks as (%d, %d)", seg, off)
	}

	past := &sparseDisk{capacity: over, sectors: make(map[int64][]byte)}
	var geo *GeometryError
	if err := Format(past, opts); !errors.As(err, &geo) || geo.Segments != limit+1 || geo.MaxSegments != limit {
		t.Fatalf("Format of %d segments: %v, want a GeometryError", limit+1, err)
	}
	if len(past.sectors) != 0 {
		t.Fatalf("the refused Format wrote %d sectors", len(past.sectors))
	}
}
