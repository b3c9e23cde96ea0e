package lld

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// ckptGoldenLayout is the geometry of the golden vectors: a four-segment LD of
// 160 KB at testOptions, 512-byte sectors.
func ckptGoldenLayout(t *testing.T) layout {
	t.Helper()
	lay, err := computeLayout(160<<10, 512, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lay.nSegments != 4 {
		t.Fatalf("%d segments, want 4", lay.nSegments)
	}
	return lay
}

// pointerSlot returns a pointer slot image: head, zeros, and crc in the
// slot's last four bytes.
func pointerSlot(lay layout, head []byte, crc uint32) []byte {
	b := make([]byte, lay.pointerSize())
	copy(b, head)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

// pointerGolden holds three pointer records, each as the head of its slot
// with the slot's CRC, and as what they decode to.
var pointerGolden = []struct {
	name    string
	head    []byte // the record; zeros follow it to the CRC
	crc     uint32
	decoded ckptPointer
}{
	{
		"a shutdown checkpoint of an empty LD",
		[]byte{
			0x50, 0x43, 0x44, 0x4C, // magic "LDCP"
			1, 0, 0, 0, 0, 0, 0, 0, // generation 1
			2, 0, 0, 0, 0, 0, 0, 0, // ts 2
			0, 0, 0, 0, 0, 0, 0, 0, // durable mark 0
			3, 0, 0, 0, // the chain starts at segment 3
			1, 0, 0, 0, // with sequence number 1
			0, 0, 0, 0, // the log goes on at segment 0
			1, 0, 0, 0, // after sequence number 1
			1,          // complete
			1,          // one extent
			3, 0, 0, 0, // segment 3
			1, 0, 0, 0, // sequence number 1
			0, 0, 0, 0, // offset 0
			8, 0, 0, 0, // 8 bytes
			0xD5, 0x5D, 0x52, 0x4D, // their CRC
		},
		0x191CDB85,
		ckptPointer{gen: 1, ts: 2, chainSeg: 3, chainSeq: 1, next: 0, openSeq: 1, complete: true,
			exts: []ckptExtent{{seg: 3, seq: 1, off: 0, len: 8, crc: 0x4D525DD5}}},
	},
	{
		"a running checkpoint in two segments",
		[]byte{
			0x50, 0x43, 0x44, 0x4C, // magic "LDCP"
			7, 0, 0, 0, 0, 0, 0, 0, // generation 7
			0xE8, 0x03, 0, 0, 0, 0, 0, 0, // ts 1,000
			0x84, 0x03, 0, 0, 0, 0, 0, 0, // durable mark 900
			2, 0, 0, 0, // the chain starts at segment 2
			9, 0, 0, 0, // with sequence number 9
			0xFF, 0xFF, 0xFF, 0, // no successor named
			10, 0, 0, 0, // after sequence number 10
			0,          // not complete
			2,          // two extents
			2, 0, 0, 0, // segment 2
			9, 0, 0, 0, // sequence number 9
			0x00, 0x5C, 0, 0, // offset 23,552
			0x00, 0x04, 0, 0, // 1,024 bytes
			0x11, 0x22, 0x33, 0x44, // their CRC
			3, 0, 0, 0, // segment 3
			10, 0, 0, 0, // sequence number 10
			0, 0, 0, 0, // offset 0
			0x2C, 0x01, 0, 0, // 300 bytes
			0x55, 0x66, 0x77, 0x88, // their CRC
		},
		0x54D0E60C,
		ckptPointer{gen: 7, ts: 1000, mark: 900, chainSeg: 2, chainSeq: 9, next: noSegment, openSeq: 10,
			exts: []ckptExtent{{seg: 2, seq: 9, off: 23552, len: 1024, crc: 0x44332211}, {seg: 3, seq: 10, off: 0, len: 300, crc: 0x88776655}}},
	},
	{
		"a running checkpoint named through its extent table",
		[]byte{
			0x50, 0x43, 0x44, 0x4C, // magic "LDCP"
			9, 0, 0, 0, 0, 0, 0, 0, // generation 9
			0x88, 0x13, 0, 0, 0, 0, 0, 0, // ts 5,000
			0xA0, 0x0F, 0, 0, 0, 0, 0, 0, // durable mark 4,000
			1, 0, 0, 0, // the chain starts at segment 1
			20, 0, 0, 0, // with sequence number 20
			2, 0, 0, 0, // the log goes on at segment 2
			22, 0, 0, 0, // after sequence number 22
			2,          // the extents are the extent table's
			1,          // one extent
			2, 0, 0, 0, // segment 2
			22, 0, 0, 0, // sequence number 22
			0, 2, 0, 0, // offset 512
			40, 0, 0, 0, // 40 bytes: a table of two payload extents
			0x04, 0x03, 0x02, 0x01, // their CRC
		},
		0x2CC6EFD8,
		ckptPointer{gen: 9, ts: 5000, mark: 4000, chainSeg: 1, chainSeq: 20, next: 2, openSeq: 22,
			table: []ckptExtent{{seg: 2, seq: 22, off: 512, len: 40, crc: 0x01020304}}},
	},
}

// Each golden pointer slot decodes to its value, and the value encodes to
// the slot's bytes.
func TestPointerGoldenVectors(t *testing.T) {
	lay := ckptGoldenLayout(t)
	for _, tc := range pointerGolden {
		t.Run(tc.name, func(t *testing.T) {
			slot := pointerSlot(lay, tc.head, tc.crc)
			p, ok := readPointer(slot, lay)
			if !ok {
				t.Fatal("the slot does not read")
			}
			if !reflect.DeepEqual(p, tc.decoded) {
				t.Fatalf("decodes as\n%+v\nwant\n%+v", p, tc.decoded)
			}
			got := make([]byte, lay.pointerSize())
			tc.decoded.put(got)
			if !bytes.Equal(got, slot) {
				t.Fatalf("encodes as\n% x\nwant\n% x", got, slot)
			}
		})
	}
}

// payloadGolden holds two checkpoint payloads of ckptGoldenLayout's LD, each as
// its bytes and the state they decode to.
var payloadGolden = []struct {
	name    string
	encoded []byte
	decoded ckptState
}{
	{
		"an empty LD, shut down",
		[]byte{
			1,          // next fresh block 1
			1,          // next list 1
			0,          // no list
			4,          // four segments
			0, 0, 0, 0, // all free
		},
		ckptState{nextFresh: 1, nextList: 1, blocks: []ckptBlock{}, lists: []ckptList{}, segs: make([]ckptSeg, 4)},
	},
	{
		"a list of two blocks, the first holding 1,000 bytes",
		[]byte{
			3, // next fresh block 3
			2, // next list 2
			// block 1
			0x53,       // allocated, has data; successor the next id, bytes where the (no) block before ends
			0x02,       // list 1: +1
			0xD0, 0x0F, // 1,000 bytes stored: +1,000
			0xAA, 0xBB, 0xCC, 0xDD, // CRC
			// block 2
			0x21, // allocated, no successor; the same list
			// lists
			1,       // one list
			2,       // list 1: +1
			2,       // first block 1: +1
			2,       // hints cluster: +1
			2,       // two members
			4,       // four segments
			1, 0x24, // segment 0 live, stamped 18
			0, 0, 0, // the rest free
		},
		ckptState{nextFresh: 3, nextList: 2,
			blocks: []ckptBlock{
				{flags: bAllocated | bHasData, next: 2, lid: 1, stored: 1000, orig: 1000, crc: 0xDDCCBBAA},
				{flags: bAllocated, lid: 1},
			},
			lists: []ckptList{{id: 1, first: 1, count: 2, hints: ld.ListHints{Cluster: true}}},
			segs:  []ckptSeg{{segLive, 18}, {}, {}, {}},
		},
	},
	{
		"two lists, one of three blocks, the first compressed",
		[]byte{
			5, // next fresh block 5
			3, // next list 3
			// block 1
			0x57,       // allocated, has data, compressed; successor the next id, bytes where the (no) block before ends
			0x02,       // list 1: +1
			0xD0, 0x0F, // 1,000 bytes stored: +1,000
			0xA0, 0x1F, // 4,000 bytes logical
			0xAA, 0xBB, 0xCC, 0xDD, // CRC
			// block 2
			0x2B,       // allocated, has data, a successor; the same list
			0x04,       // successor 4: +2
			0x02,       // segment 1: +1
			0xCF, 0x0F, // offset 0: −1,000 from where block 1 ends
			0xA0, 0x1F, // 3,000 bytes stored: +2,000
			0x01, 0x02, 0x03, 0x04, // CRC
			// block 3
			0x00, // free
			// block 4
			0x63,       // allocated, has data, no successor; the same list, bytes where block 2's end
			0xEF, 0x2E, // 0 bytes stored: −3,000
			// lists
			2,       // two lists
			4,       // list 2: +2
			0,       // first block none: +0
			0,       // no hints: +0
			0,       // no members
			1,       // list 1: −1
			2,       // first block 1: +1
			2,       // hints cluster: +1
			3,       // three members
			4,       // four segments
			1, 0x28, // segment 0 live, stamped 20
			1, 0x14, // segment 1 live, stamped 30: +10
			0,    // segment 2 free
			4, 3, // segment 3 quarantined, stamped 28: −2
		},
		ckptState{nextFresh: 5, nextList: 3,
			blocks: []ckptBlock{
				{flags: bAllocated | bHasData | bComp, next: 2, lid: 1, seg: 0, off: 0, stored: 1000, orig: 4000, crc: 0xDDCCBBAA},
				{flags: bAllocated | bHasData, next: 4, lid: 1, seg: 1, off: 0, stored: 3000, orig: 3000, crc: 0x04030201},
				{},
				{flags: bAllocated | bHasData, lid: 1, seg: 1, off: 3000},
			},
			lists: []ckptList{{id: 2}, {id: 1, first: 1, count: 3, hints: ld.ListHints{Cluster: true}}},
			segs:  []ckptSeg{{segLive, 20}, {segLive, 30}, {}, {segQuarantined, 28}},
		},
	},
}

// Each golden payload decodes to its state, and the state encodes to the
// payload's bytes.
func TestCheckpointGoldenVectors(t *testing.T) {
	lay := ckptGoldenLayout(t)
	for _, tc := range payloadGolden {
		t.Run(tc.name, func(t *testing.T) {
			st, err := decodeCheckpoint(tc.encoded, lay)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*st, tc.decoded) {
				t.Fatalf("decodes as\n%+v\nwant\n%+v", *st, tc.decoded)
			}
			if got := encodeCheckpoint(&tc.decoded); !bytes.Equal(got, tc.encoded) {
				t.Fatalf("encodes as\n% x\nwant\n% x", got, tc.encoded)
			}
		})
	}
}

// A payload cut short anywhere, or run on by a byte, does not decode, and
// a pointer slot cut short anywhere, or with a flipped CRC, does not read
// (a slot is one sector, which the platter writes whole or not at all).
func TestCheckpointRefusesTruncationsAndAFlippedCRC(t *testing.T) {
	lay := ckptGoldenLayout(t)
	for i, tc := range payloadGolden {
		t.Run(tc.name, func(t *testing.T) {
			for k := range tc.encoded {
				if _, err := decodeCheckpoint(tc.encoded[:k], lay); !errors.Is(err, ErrFormat) {
					t.Fatalf("the payload's first %d of %d bytes: %v, want ErrFormat", k, len(tc.encoded), err)
				}
			}
			if _, err := decodeCheckpoint(append(bytes.Clone(tc.encoded), 0), lay); !errors.Is(err, ErrFormat) {
				t.Fatalf("the payload and a byte more: %v, want ErrFormat", err)
			}
			pg := pointerGolden[i%len(pointerGolden)]
			slot := pointerSlot(lay, pg.head, pg.crc)
			for k := range slot {
				if _, ok := readPointer(slot[:k], lay); ok {
					t.Fatalf("the pointer slot's first %d of %d bytes read as a pointer", k, len(slot))
				}
			}
			flipped := bytes.Clone(slot)
			flipped[len(flipped)-4] ^= 1
			if _, ok := readPointer(flipped, lay); ok {
				t.Fatal("a pointer slot with a flipped CRC reads as a pointer")
			}
		})
	}
}

// The state a snapshot records is the state its payload installs: a
// checkpoint of a running instance, loaded by a fresh one, encodes to the
// same bytes.
func TestCheckpointInstallsWhatItSnapshots(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	fillBlocks(t, l, 20)
	l.mu.Lock()
	want := encodeCheckpoint(liveState{l})
	l.mu.Unlock()
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	l2.mu.Lock()
	// The shutdown checkpoint's payload segment is live in the mounted
	// state; in the snapshot it was the open segment, recorded live too.
	got := encodeCheckpoint(liveState{l2})
	l2.mu.Unlock()
	st, err := decodeCheckpoint(want, l2.lay)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := decodeCheckpoint(got, l2.lay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.blocks, st2.blocks) || !reflect.DeepEqual(st.lists, st2.lists) {
		t.Fatal("the mounted state's blocks or lists differ from the snapshot's")
	}
}

// A v5 image is refused with ErrFormat: there is one decoder.
func TestFormatV5IsRefused(t *testing.T) {
	d := disk.New(disk.DefaultConfig(4 << 20))
	if err := Format(d, testOptions()); err != nil {
		t.Fatal(err)
	}
	sector := make([]byte, d.SectorSize())
	if err := d.ReadAt(sector, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(sector[8:], 5)
	binary.LittleEndian.PutUint32(sector[4:], crc32.Checksum(sector[8:60], crcTable)) // v5's superblock was 60 bytes
	if err := d.WriteAt(sector, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d, testOptions()); !errors.Is(err, ErrFormat) {
		t.Fatalf("a v5 superblock mounts: %v", err)
	}
}

// newestPayloadAt returns the byte offset on the platter of the first byte
// of the newest checkpoint's payload, and its pointer.
func newestPayloadAt(t *testing.T, l *LLD) (int64, ckptPointer) {
	t.Helper()
	buf := make([]byte, l.lay.pointerSize())
	if err := l.dsk.ReadAt(buf, l.lay.pointerOff(l.ckptSlot)); err != nil {
		t.Fatal(err)
	}
	p, ok := readPointer(buf, l.lay)
	if !ok {
		t.Fatal("the newest pointer slot does not read")
	}
	e := p.exts[0]
	return l.lay.segOff(int(e.seg)) + int64(e.off), p
}

// rewriteCheckpoint hands edit the payload of the checkpoint a shut-down l
// wrote last, which must lie in one extent, and writes it back with the
// pointer's CRC of it updated.
func rewriteCheckpoint(t *testing.T, d *disk.Disk, l *LLD, edit func(payload []byte)) {
	t.Helper()
	at, p := newestPayloadAt(t, l)
	if len(p.exts) != 1 {
		t.Fatalf("the payload lies in %d extents", len(p.exts))
	}
	ss := int64(d.SectorSize())
	from := at / ss * ss
	span := make([]byte, (at+int64(p.exts[0].len)+ss-1)/ss*ss-from)
	if err := d.ReadAt(span, from); err != nil {
		t.Fatal(err)
	}
	payload := span[at-from : at-from+int64(p.exts[0].len)]
	edit(payload)
	if err := d.WriteAt(span, from); err != nil {
		t.Fatal(err)
	}
	p.exts[0].crc = payloadCRC(payload)
	buf := make([]byte, l.lay.pointerSize())
	p.put(buf)
	if err := d.WriteAt(buf, l.lay.pointerOff(l.ckptSlot)); err != nil {
		t.Fatal(err)
	}
}

// An extent table decodes to the payload's extents, and is refused cut
// short, naming an extent outside the segments' data areas, or not
// beginning where the pointer's chain starts.
func TestExtentTableRefusals(t *testing.T) {
	lay := ckptGoldenLayout(t)
	p := pointerGolden[2].decoded
	want := []ckptExtent{{seg: 1, seq: 20, off: 100, len: 200, crc: 7}, {seg: 2, seq: 22, off: 0, len: 300, crc: 8}}
	var table []byte
	for _, e := range want {
		table = e.append(table)
	}
	if !p.decodeTable(table, lay) || !reflect.DeepEqual(p.exts, want) {
		t.Fatalf("the table decodes as %+v", p.exts)
	}
	for k := range table {
		if k > 0 && k%ckptExtentSize == 0 {
			continue // a whole extent less is a table too, of one extent
		}
		if p.decodeTable(table[:k], lay) {
			t.Fatalf("the table's first %d of %d bytes decode", k, len(table))
		}
	}
	outside := slices.Clone(want)
	outside[1].off, outside[1].len = 1, uint32(lay.dataCap())
	notChain := slices.Clone(want)
	notChain[0].seq = 21
	for name, exts := range map[string][]ckptExtent{"outside a data area": outside, "not the chain's start": notChain} {
		var b []byte
		for _, e := range exts {
			b = e.append(b)
		}
		if p.decodeTable(b, lay) {
			t.Fatalf("a table with an extent %s decodes", name)
		}
	}
}
