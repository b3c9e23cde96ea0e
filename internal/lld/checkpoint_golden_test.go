package lld

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// ckptValue is what a checkpoint slot decodes to: its header, and the state
// decodeCheckpoint installs from its payload.
type ckptValue struct {
	header    ckptHeader
	ts, mark  uint64
	nextFresh ld.BlockID
	nextList  ld.ListID
	openSeq   uint32
	chainSeg  int // -1 for none
	chainSeq  uint32
	blocks    []ckptBlock // ids 1 to nextFresh-1
	lists     []ckptList  // in the list of lists' order
	segs      []ckptSeg
}

type ckptBlock struct {
	flags                  uint8
	next                   ld.BlockID
	lid                    ld.ListID
	seg                    int
	off, stored, orig, crc uint32
}

type ckptList struct {
	id    ld.ListID
	first ld.BlockID
	count int
	hints ld.ListHints
}

type ckptSeg struct {
	live  int64
	ts    uint64
	state uint8
}

func ckptValueOf(l *LLD, h ckptHeader) ckptValue {
	v := ckptValue{header: h, ts: l.ts, mark: l.durableMark, nextFresh: l.nextFresh, nextList: l.nextList,
		openSeq: l.openSeq, chainSeg: l.succ, chainSeq: l.ckptSeq}
	for i := 1; i < int(l.nextFresh); i++ {
		bi := &l.blocks[i]
		b := ckptBlock{flags: bi.flags, next: bi.next, lid: bi.lid}
		if bi.hasData() {
			b.seg, b.off, b.stored, b.orig, b.crc = l.segOf(bi), l.offOf(bi), uint32(bi.stored), uint32(bi.orig), bi.crc
		}
		v.blocks = append(v.blocks, b)
	}
	for li := l.head; li != nil; li = li.next {
		v.lists = append(v.lists, ckptList{li.id, li.first, li.count, li.hints})
	}
	for _, s := range l.segs {
		v.segs = append(v.segs, ckptSeg{s.live, s.ts, s.state})
	}
	return v
}

// checkpointGolden holds two checkpoint slots of a four-segment LD (160 KB
// at testOptions), each as its header and payload and as what they decode
// to. The CRCs are the CRC32C of the payload that follows.
var checkpointGolden = []struct {
	name    string
	encoded []byte // header and payload; the rest of the sector is zero
	decoded ckptValue
}{
	{
		"an empty LD, shut down",
		[]byte{
			0x50, 0x43, 0x44, 0x4C, // magic "LDCP"
			0xD5, 0xB8, 0x79, 0x09, // CRC
			0, 0, 0, 0, 0, 0, 0, 0, // ts 0
			112, 0, 0, 0, // payload bytes
			1, 1, 0, 0, // valid, complete, padding
			// payload
			0, 0, 0, 0, 0, 0, 0, 0, // ts 0
			1, 0, 0, 0, // next fresh block 1
			1, 0, 0, 0, // next list 1
			0, 0, 0, 0, 0, 0, 0, 0, // durable mark 0
			0, 0, 0, 0, // open sequence number 0
			0, 0, 0, 0, // the chain starts at segment 0
			1, 0, 0, 0, // with sequence number 1
			0, 0, 0, 0, // no list
			4, 0, 0, 0, // four segments, all free and empty
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		},
		ckptValue{
			header:    ckptHeader{crc: 0x0979B8D5, plen: 112, complete: true},
			nextFresh: 1, nextList: 1, chainSeq: 1,
			segs: make([]ckptSeg, 4),
		},
	},
	{
		"a list of two blocks, the first holding 1,000 bytes",
		[]byte{
			0x50, 0x43, 0x44, 0x4C, // magic "LDCP"
			0xD3, 0x31, 0x73, 0xE1, // CRC
			20, 0, 0, 0, 0, 0, 0, 0, // ts 20
			143, 0, 0, 0, // payload bytes
			1, 0, 0, 0, // valid, not complete, padding
			// payload
			20, 0, 0, 0, 0, 0, 0, 0, // ts 20
			3, 0, 0, 0, // next fresh block 3
			2, 0, 0, 0, // next list 2
			15, 0, 0, 0, 0, 0, 0, 0, // durable mark 15
			2, 0, 0, 0, // open sequence number 2
			1, 0, 0, 0, // the chain starts at segment 1
			3, 0, 0, 0, // with sequence number 3
			// block 1
			0x03,       // allocated, has data
			0x02,       // successor 2: +1, zigzag 2
			0x01,       // list 1
			0x00,       // segment 0
			0x00,       // offset 0
			0xE8, 0x07, // 1,000 bytes stored
			0xAA, 0xBB, 0xCC, 0xDD, // their CRC
			// block 2
			0x01,       // allocated
			0x03,       // no successor: 0 - 2 = -2, zigzag 3
			0x01,       // list 1
			1, 0, 0, 0, // one list
			1, 0, 0, 0, // list 1
			1, 0, 0, 0, // first block 1
			2, 0, 0, 0, // two blocks
			1, 0, 0, 0, // hints: cluster
			0,          // padding
			4, 0, 0, 0, // four segments
			0xE8, 0x03, 0, 0, 0, 0, 0, 0, // segment 0: 1,000 live bytes
			18, 0, 0, 0, 0, 0, 0, 0, // stamped 18
			1, // live
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		},
		ckptValue{
			header: ckptHeader{crc: 0xE17331D3, ts: 20, plen: 143},
			ts:     20, mark: 15, nextFresh: 3, nextList: 2, openSeq: 2, chainSeg: 1, chainSeq: 3,
			blocks: []ckptBlock{
				{flags: bAllocated | bHasData, next: 2, lid: 1, stored: 1000, orig: 1000, crc: 0xDDCCBBAA},
				{flags: bAllocated, lid: 1},
			},
			lists: []ckptList{{id: 1, first: 1, count: 2, hints: ld.ListHints{Cluster: true}}},
			segs:  []ckptSeg{{live: 1000, ts: 18, state: segLive}, {}, {}, {}},
		},
	},
}

// goldenCkptInstance returns an instance with no state on a fresh disk of
// checkpointGolden's geometry, as Format and the checkpoint loader start
// from.
func goldenCkptInstance(t *testing.T) *LLD {
	t.Helper()
	lay, err := computeLayout(160<<10, 512, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lay.nSegments != 4 {
		t.Fatalf("%d segments, want 4", lay.nSegments)
	}
	return newInstance(disk.New(disk.DefaultConfig(160<<10)), testOptions(), lay)
}

// Each golden slot decodes to its value, and the state it decodes to
// encodes to its bytes again: the header with the payload's CRC, the
// payload, and zeros to the end of the sector.
func TestCheckpointGoldenVectors(t *testing.T) {
	for _, tc := range checkpointGolden {
		t.Run(tc.name, func(t *testing.T) {
			h, ok := readCkptHeader(tc.encoded)
			if !ok {
				t.Fatal("the header does not read")
			}
			payload, whole := h.payload(tc.encoded)
			if !whole || len(tc.encoded) != checkpointHeaderSize+h.plen {
				t.Fatalf("whole %v, %d bytes for a payload of %d", whole, len(tc.encoded), h.plen)
			}
			l := goldenCkptInstance(t)
			if err := l.decodeCheckpoint(payload); err != nil {
				t.Fatal(err)
			}
			if got := ckptValueOf(l, h); !reflect.DeepEqual(got, tc.decoded) {
				t.Fatalf("decodes as\n%+v\nwant\n%+v", got, tc.decoded)
			}

			if err := l.writeCheckpoint(h.complete); err != nil {
				t.Fatal(err)
			}
			ss := l.lay.sectorSize
			img := make([]byte, h.imageSize(ss))
			if err := l.dsk.ReadAt(img, l.lay.checkpointOff+int64(l.ckptSlot)*l.lay.checkpointSize); err != nil {
				t.Fatal(err)
			}
			if got := img[:len(tc.encoded)]; !bytes.Equal(got, tc.encoded) {
				t.Fatalf("encodes as\n% x\nwant\n% x", got, tc.encoded)
			}
			if !bytes.Equal(img[len(tc.encoded):], make([]byte, len(img)-len(tc.encoded))) {
				t.Fatal("the sector after the payload is not zero")
			}
		})
	}
}

// A slot image cut short anywhere, or whose CRC is flipped, is not a
// checkpoint, and a payload cut short anywhere does not decode.
func TestCheckpointRefusesTruncationsAndAFlippedCRC(t *testing.T) {
	for _, tc := range checkpointGolden {
		t.Run(tc.name, func(t *testing.T) {
			for k := range tc.encoded {
				if h, ok := readCkptHeader(tc.encoded[:k]); ok {
					if _, whole := h.payload(tc.encoded[:k]); whole {
						t.Fatalf("the image's first %d of %d bytes read as a checkpoint", k, len(tc.encoded))
					}
				}
			}
			flipped := bytes.Clone(tc.encoded)
			flipped[4] ^= 1
			if h, ok := readCkptHeader(flipped); !ok {
				t.Fatal("a flipped CRC hides the header")
			} else if _, whole := h.payload(flipped); whole {
				t.Fatal("an image with a flipped CRC reads as a checkpoint")
			}
			payload := tc.encoded[checkpointHeaderSize:]
			for k := range payload {
				if err := goldenCkptInstance(t).decodeCheckpoint(payload[:k]); !errors.Is(err, ErrFormat) {
					t.Fatalf("the payload's first %d of %d bytes: %v, want ErrFormat", k, len(payload), err)
				}
			}
		})
	}
}
