package lld

import (
	"bytes"
	"errors"
	"math"
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
// map to its nextFresh, so it refuses a nextFresh beyond what its records
// can describe and a block at or above nextFresh rather than grow the map
// for them.
func TestCheckpointRefusesIDsBeyondItsFreshWatermark(t *testing.T) {
	// nextFresh is the payload's first field, a one-byte varint here.
	cases := []struct {
		name string
		edit func(nextFresh byte) byte // the nextFresh to store
		ok   bool
	}{
		{"unchanged", func(nf byte) byte { return nf }, true},
		{"past the address space", func(byte) byte { return 0x7F }, false}, // more ids than its records describe
		{"below an allocated block", func(nf byte) byte { return nf - 1 }, false},
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
			var nf byte
			rewriteCheckpoint(t, d, l, func(payload []byte) {
				nf = payload[0]
				payload[0] = tc.edit(nf)
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
				t.Fatalf("mounted a checkpoint whose nextFresh reads %d: %v", tc.edit(nf), err)
			}
		})
	}
}

// A checkpoint's list records name each list once, by an id it handed out:
// the loader links them into the list of lists, so it refuses list 0, an id
// at or above the checkpoint's next list id, and an id named twice.
func TestCheckpointRefusesBadListIDs(t *testing.T) {
	// With no block the payload begins nextFresh, nextList and the list
	// count, a byte each, and then the three lists' records, four bytes
	// each: the id, first block and hints as deltas from the list before
	// (zigzag), and the count. The lists are 1, 2, 3 in that order.
	const recsAt, recSize = 3, 4
	cases := []struct {
		name string
		edit func(recs []byte) // recs: the list records
		ok   bool
	}{
		{"unchanged", func([]byte) {}, true},
		{"list 0", func(recs []byte) { recs[0] = 0 }, false},
		{"at the next list id", func(recs []byte) { recs[recSize] = 2 * 3 }, false}, // 1 + 3 = 4
		{"named twice", func(recs []byte) { recs[2*recSize] = 0 }, false},           // 2 again
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, l := newTestLLD(t, 4<<20, testOptions())
			pred := ld.NilList
			for i := 0; i < 3; i++ {
				pred = mustNewList(t, l, pred, ld.ListHints{})
			}
			nLists := len(l.lists)
			if err := l.Shutdown(true); err != nil {
				t.Fatal(err)
			}
			rewriteCheckpoint(t, d, l, func(payload []byte) {
				if !bytes.Equal(payload[:recsAt+nLists*recSize], []byte{1, 4, 3, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}) {
					t.Fatalf("the payload begins % x", payload[:recsAt+nLists*recSize])
				}
				tc.edit(payload[recsAt:])
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
