package lld

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ld"
)

// summaryRecords is everything one summary image carries.
type summaryRecords struct {
	segID         int
	writeTS, mark uint64
	seq, next     uint32
	sealed        bool
	dataBytes     int
	entries       []blockEntry
	tuples        []tupleRec
}

// encode writes r's image into a fresh segment buffer and returns the
// buffer and the length encodeSummary asked to be written.
func (r summaryRecords) encode(lay layout) ([]byte, int, error) {
	seg := make([]byte, lay.segmentSize)
	used, err := encodeSummary(seg, lay, r.segID, r.writeTS, r.mark, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples)
	return seg, used, err
}

// randomSummary builds a random record set for one segment that the log
// could have produced — entries at contiguous offsets, orig equal to stored
// unless compressed, no checksum on an empty payload, stamps rising in log
// order across entries and tuples alike — with a durable mark below the
// write timestamp, or none. It stops at a random count or when the summary is full.
func randomSummary(rng *rand.Rand, lay layout) summaryRecords {
	kinds := []uint8{tAlloc, tFree, tNewList, tDelList, tMoveList, tCommit,
		tBlockState, tBlockFree, tListState, tDataAt, tFence}
	var r summaryRecords
	ts := uint64(rng.Int63n(1 << 40))
	size, off := summaryHeaderSize, 0
	for n := rng.Intn(400); n > 0; n-- {
		ts += 1 + uint64(rng.Intn(5))
		if rng.Intn(2) == 0 {
			stored := rng.Intn(lay.maxBlockSize + 1)
			if off+stored > lay.dataCap() {
				break
			}
			e := blockEntry{
				bid:    ld.BlockID(1 + rng.Intn(1<<20)),
				ts:     ts,
				off:    uint32(off),
				stored: uint32(stored),
				orig:   uint32(stored),
				flags:  uint8(rng.Intn(2)) * entryCommitted,
			}
			if stored > 0 {
				e.crc = rng.Uint32()
			}
			if rng.Intn(4) == 0 {
				e.flags |= entryCompressed
				e.orig = uint32(stored + rng.Intn(lay.maxBlockSize+1))
			}
			var prev uint64
			if k := len(r.entries); k > 0 {
				prev = r.entries[k-1].ts
			}
			if size += e.packedSize(prev); size > lay.summarySize {
				break
			}
			r.entries = append(r.entries, e)
			off += stored
			continue
		}
		t := tupleRec{kind: kinds[rng.Intn(len(kinds))], flags: uint8(rng.Intn(2)), ts: ts}
		for i := 0; i < tupleArgc[t.kind]; i++ {
			t.args[i] = rng.Uint32() >> rng.Intn(33)
		}
		var prev uint64
		if k := len(r.tuples); k > 0 {
			prev = r.tuples[k-1].ts
		}
		if size += t.packedSize(prev); size > lay.summarySize {
			break
		}
		r.tuples = append(r.tuples, t)
	}
	r.dataBytes = off + rng.Intn(lay.dataCap()-off+1)
	r.writeTS = ts + 1 + uint64(rng.Intn(5))
	// The header keeps a mark as its distance below the stamp, in 32 bits.
	if span := min(r.writeTS-1, markFar-1); span > 0 && rng.Intn(8) != 0 {
		r.mark = r.writeTS - 1 - uint64(rng.Int63n(int64(span)))
	}
	r.sealed = rng.Intn(2) == 0
	r.seq = rng.Uint32()
	r.next = noSegment
	if rng.Intn(4) != 0 {
		r.next = uint32(rng.Intn(lay.nSegments))
	}
	return r
}

// TestQuickSummaryRoundTrip: encode/decode of a segment summary is the
// identity on every field for any record set the log can produce that
// fits, the image needs only the sectors encodeSummary asks to be written,
// and whatever an older image left in the rest of the slot is not read.
func TestQuickSummaryRoundTrip(t *testing.T) {
	lay, err := computeLayout(8<<20, 512, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, lay.segmentSize)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomSummary(rng, lay)
		r.segID = rng.Intn(lay.nSegments)
		rng.Read(buf) // the slot's previous contents
		used, err := encodeSummary(buf, lay, r.segID, r.writeTS, r.mark, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		if need := summaryBytes(r.entries, r.tuples); used%lay.sectorSize != 0 || used < need || used >= need+lay.sectorSize {
			t.Logf("seed %d: encode asked for %d bytes to be written for a %d-byte summary", seed, used, need)
			return false
		}
		slot := buf[lay.dataCap() : lay.dataCap()+lay.summarySize]
		for _, img := range [][]byte{slot, slot[:used]} {
			si, err := decodeSummary(img, lay, r.segID)
			if err != nil {
				t.Logf("seed %d: decode %d bytes: %v", seed, len(img), err)
				return false
			}
			if si.segID != r.segID || si.writeTS != r.writeTS || si.mark != r.mark || si.seq != r.seq || si.next != r.next || si.sealed != r.sealed || si.dataBytes != r.dataBytes {
				t.Logf("seed %d: header mismatch", seed)
				return false
			}
			if !slices.Equal(si.entries, r.entries) || !slices.Equal(si.tuples, r.tuples) {
				t.Logf("seed %d: records mismatch:\n got %+v %+v\nwant %+v %+v", seed, si.entries, si.tuples, r.entries, r.tuples)
				return false
			}
		}
		// A foreign segment id must be rejected.
		if _, err := decodeSummary(slot, lay, r.segID+1); err == nil {
			t.Logf("seed %d: accepted foreign segment id", seed)
			return false
		}
		// A summary never vouches for itself: a mark at or above its own
		// write timestamp is not one lld can have written, and an image
		// whose header places the mark there is refused.
		for _, bad := range []uint64{r.writeTS, r.writeTS + 1 + uint64(rng.Int63n(1<<20))} {
			if _, err := encodeSummary(buf, lay, r.segID, r.writeTS, bad, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples); !errors.Is(err, ErrFormat) {
				t.Logf("seed %d: mark %d at write timestamp %d: encode returned %v", seed, bad, r.writeTS, err)
				return false
			}
		}
		if _, err := encodeSummary(buf, lay, r.segID, r.writeTS, r.mark, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples); err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		end := summaryBytes(r.entries, r.tuples)
		for _, dist := range []uint32{0, uint32(min(r.writeTS, markFar-1))} {
			binary.LittleEndian.PutUint32(slot[36:], dist)
			binary.LittleEndian.PutUint32(slot[4:], crc32.Checksum(slot[8:end], crcTable))
			if dist != 0 && uint64(dist) < r.writeTS {
				continue // a mark below the stamp: valid
			}
			if _, err := decodeSummary(slot, lay, r.segID); !errors.Is(err, ErrFormat) {
				t.Logf("seed %d: mark %d below write timestamp %d: decode returned %v", seed, dist, r.writeTS, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// testCase is one golden vector: a record set and the bytes format v5
// writes for it after the 44-byte header.
type testCase struct {
	name    string
	records summaryRecords
	encoded []byte
}

var summaryGolden = []testCase{
	{
		"header only",
		summaryRecords{segID: 3, writeTS: 10, mark: 9, seq: 4, next: 5, sealed: true},
		nil,
	},
	{
		"one committed 1-KB entry",
		summaryRecords{segID: 3, writeTS: 10, dataBytes: 1024, entries: []blockEntry{
			{bid: 7, ts: 5, stored: 1024, orig: 1024, crc: 0xDDCCBBAA, flags: entryCommitted},
		}},
		[]byte{
			0x02,       // flags: committed
			0x07,       // bid 7
			0x0A,       // ts 5 - 0 = +5, zigzag 10
			0x80, 0x08, // stored 1024
			0xAA, 0xBB, 0xCC, 0xDD, // crc
		},
	},
	{
		"compressed entry, then an empty one stamped earlier",
		summaryRecords{segID: 3, writeTS: 2000, mark: 1, dataBytes: 512, entries: []blockEntry{
			{bid: 300, ts: 1000, stored: 100, orig: 4096, crc: 0x01020304, flags: entryCompressed | entryCommitted},
			{bid: 1, ts: 998, off: 100},
		}},
		[]byte{
			0x03,       // flags: compressed, committed
			0xAC, 0x02, // bid 300
			0xD0, 0x0F, // ts +1000, zigzag 2000
			0x64,       // stored 100
			0x80, 0x20, // orig 4096, present because compressed
			0x04, 0x03, 0x02, 0x01, // crc
			0x00, // flags: none
			0x01, // bid 1
			0x03, // ts 998 - 1000 = -2, zigzag 3
			0x00, // stored 0: no crc follows
		},
	},
	{
		"tuples: kind and flags share a byte, arguments are varints",
		summaryRecords{segID: 3, writeTS: 10, tuples: []tupleRec{
			{kind: tAlloc, flags: tupleCommitted, ts: 7, args: [7]uint32{9, 2, 0, 8, 1}},
			{kind: tCommit, flags: tupleCommitted, ts: 8},
			{kind: tFence, ts: 9, args: [7]uint32{0xFFFFFFFF, 0, 200, 0}},
		}},
		[]byte{
			0x11, 0x0E, 0x09, 0x02, 0x00, 0x08, 0x01, // alloc, committed, ts +7, bid 9, lid 2, next 0, pred 8, head
			0x16, 0x02, // commit, committed, ts +1
			0x0B, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, 0xC8, 0x01, 0x00, // fence, ts +1, 2^32-1, 0, 200, 0
		},
	},
	{
		"entries before tuples, each with its own ts chain",
		summaryRecords{segID: 3, writeTS: 10, dataBytes: 512, entries: []blockEntry{
			{bid: 2, ts: 3, stored: 512, orig: 512, crc: 0x11111111, flags: entryCommitted},
		}, tuples: []tupleRec{
			{kind: tNewList, flags: tupleCommitted, ts: 2, args: [7]uint32{1, 0, 1}},
		}},
		[]byte{
			0x02, 0x02, 0x06, 0x80, 0x04, 0x11, 0x11, 0x11, 0x11, // entry: bid 2, ts +3, stored 512
			0x13, 0x04, 0x01, 0x00, 0x01, // newlist, committed, ts +2, lid 1, pred 0, hints cluster
		},
	},
}

func goldenLayout(t testing.TB) layout {
	t.Helper()
	lay, err := computeLayout(8<<20, 512, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// Each golden record set encodes to its bytes: the header (laid out as in
// format v3, with the chain link packed into it) with its CRC
// over everything up to the last record, the records, and zeros to the end
// of the sector. The image decodes back to the record set.
func TestSummaryGoldenVectors(t *testing.T) {
	lay := goldenLayout(t)
	for _, tc := range summaryGolden {
		t.Run(tc.name, func(t *testing.T) {
			seg, used, err := tc.records.encode(lay)
			if err != nil {
				t.Fatal(err)
			}
			img := seg[lay.dataCap() : lay.dataCap()+used]
			end := summaryHeaderSize + len(tc.encoded)
			if used != lay.sectorSize || summaryBytes(tc.records.entries, tc.records.tuples) != end {
				t.Fatalf("used %d, summaryBytes %d; want one sector and %d", used, summaryBytes(tc.records.entries, tc.records.tuples), end)
			}
			if got := img[summaryHeaderSize:end]; !bytes.Equal(got, tc.encoded) {
				t.Fatalf("records encode as\n% x\nwant\n% x", got, tc.encoded)
			}
			if !bytes.Equal(img[end:], make([]byte, used-end)) {
				t.Fatal("padding after the last record is not zero")
			}
			le := binary.LittleEndian
			if le.Uint32(img) != summaryMagic || le.Uint32(img[4:]) != crc32.Checksum(img[8:end], crcTable) ||
				int(le.Uint32(img[8:])) != tc.records.segID || le.Uint64(img[12:]) != tc.records.writeTS ||
				int(le.Uint32(img[24:])) != len(tc.records.entries) || int(le.Uint32(img[28:])) != len(tc.records.tuples) ||
				le.Uint32(img[32:])>>8 != tc.records.next || le.Uint32(img[40:]) != tc.records.seq {
				t.Fatalf("header % x does not hold the magic, the CRC, the id, the stamp, the counts and the chain link where the sweep reads them", img[:summaryHeaderSize])
			}
			si, err := decodeSummary(img, lay, tc.records.segID)
			if err != nil {
				t.Fatal(err)
			}
			r := tc.records
			if si.segID != r.segID || si.writeTS != r.writeTS || si.mark != r.mark || si.seq != r.seq || si.next != r.next || si.sealed != r.sealed || si.dataBytes != r.dataBytes ||
				!slices.Equal(si.entries, r.entries) || !slices.Equal(si.tuples, r.tuples) {
				t.Fatalf("decodes as %+v, want %+v", si, r)
			}
		})
	}
}

// encodeSummary refuses a record the log cannot produce rather than write
// an image that would decode as something else.
func TestEncodeSummaryRefusesRecordsTheLogCannotProduce(t *testing.T) {
	lay := goldenLayout(t)
	ok := blockEntry{bid: 1, ts: 1, stored: 100, orig: 100, crc: 1, flags: entryCommitted}
	for _, tc := range []struct {
		name string
		r    summaryRecords
	}{
		{"an entry off the end of the one before", summaryRecords{dataBytes: 512, entries: []blockEntry{ok, {bid: 2, ts: 2, off: 200, stored: 1, orig: 1, crc: 1}}}},
		{"an uncompressed entry whose orig is not its stored size", summaryRecords{dataBytes: 512, entries: []blockEntry{{bid: 1, ts: 1, stored: 100, orig: 4096, crc: 1}}}},
		{"a checksum on an empty payload", summaryRecords{dataBytes: 512, entries: []blockEntry{{bid: 1, ts: 1, crc: 1}}}},
		{"entries past the data extent", summaryRecords{dataBytes: 99, entries: []blockEntry{ok}}},
		{"an undefined entry flag", summaryRecords{dataBytes: 512, entries: []blockEntry{{bid: 1, ts: 1, flags: 4}}}},
		{"an undefined tuple flag", summaryRecords{tuples: []tupleRec{{kind: tCommit, ts: 1, flags: 2}}}},
		{"an undefined tuple kind", summaryRecords{tuples: []tupleRec{{kind: tupleKindMax, ts: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.r.writeTS = 10
			if _, _, err := tc.r.encode(lay); !errors.Is(err, ErrFormat) {
				t.Fatalf("encodeSummary returned %v, want ErrFormat", err)
			}
		})
	}
	if _, _, err := (summaryRecords{writeTS: 10, dataBytes: 512, entries: []blockEntry{ok}}).encode(lay); err != nil {
		t.Fatalf("the valid entry the cases start from: %v", err)
	}
}

// decodeSummary refuses an image whose entries imply data beyond the
// header's extent, and one that spells a varint longer than it need be,
// even under a checksum that matches.
func TestDecodeSummaryRefusesWhatTheEncoderNeverWrites(t *testing.T) {
	lay := goldenLayout(t)
	reseal := func(img []byte, end int) {
		binary.LittleEndian.PutUint32(img[4:], crc32.Checksum(img[8:end], crcTable))
	}
	tc := summaryGolden[1] // one 1-KB entry
	end := summaryHeaderSize + len(tc.encoded)

	seg, used, err := tc.records.encode(lay)
	if err != nil {
		t.Fatal(err)
	}
	img := seg[lay.dataCap() : lay.dataCap()+used]
	binary.LittleEndian.PutUint32(img[20:], 1023) // data extent one byte short
	reseal(img, end)
	if _, err := decodeSummary(img, lay, tc.records.segID); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "data extent") {
		t.Errorf("entries past the data extent: decode returned %v", err)
	}

	seg, used, err = tc.records.encode(lay)
	if err != nil {
		t.Fatal(err)
	}
	img = append([]byte(nil), seg[lay.dataCap():lay.dataCap()+used]...)
	// bid 7 spelled in two bytes: 0x87 0x00.
	long := append(append(append([]byte(nil), img[:summaryHeaderSize+1]...), 0x87, 0x00), img[summaryHeaderSize+2:]...)
	reseal(long, end+1)
	if _, err := decodeSummary(long, lay, tc.records.segID); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "malformed varint") {
		t.Errorf("non-minimal varint: decode returned %v", err)
	}
}

// FuzzDecodeSummary: decodeSummary never panics, refuses with ErrFormat, and
// any image it accepts re-encodes to the same bytes up to its last record.
// Each input is also tried with its CRC recomputed over everything after
// the checksum, so the fuzzer reaches the record parser without forging a
// CRC32C. The seed corpus (the golden vectors and a few random summaries,
// whole, cut at their last record and torn) runs with the ordinary tests.
func FuzzDecodeSummary(f *testing.F) {
	lay := goldenLayout(f)
	const segID = 3
	add := func(r summaryRecords, torn int) {
		seg, used, err := r.encode(lay)
		if err != nil {
			f.Fatal(err)
		}
		img := seg[lay.dataCap() : lay.dataCap()+used]
		f.Add(img)
		f.Add(img[:summaryBytes(r.entries, r.tuples)])
		f.Add(img[:torn%len(img)])
	}
	for i, tc := range summaryGolden {
		add(tc.records, summaryHeaderSize+i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		r := randomSummary(rng, lay)
		r.segID = segID
		add(r, rng.Int())
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > lay.summarySize {
			img = img[:lay.summarySize]
		}
		resealed := append([]byte(nil), img...)
		if len(resealed) >= 8 {
			binary.LittleEndian.PutUint32(resealed[4:], crc32.Checksum(resealed[8:], crcTable))
		}
		for _, img := range [][]byte{img, resealed} {
			si, err := decodeSummary(img, lay, segID)
			if err != nil {
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("decode error %v is not ErrFormat", err)
				}
				continue
			}
			r := summaryRecords{si.segID, si.writeTS, si.mark, si.seq, si.next, si.sealed, si.dataBytes, si.entries, si.tuples}
			seg, _, err := r.encode(lay)
			if err != nil {
				t.Fatalf("an accepted image does not re-encode: %v", err)
			}
			n := summaryBytes(si.entries, si.tuples)
			if got := seg[lay.dataCap() : lay.dataCap()+n]; !bytes.Equal(got, img[:n]) {
				t.Fatalf("re-encodes as\n% x\nnot\n% x", got, img[:n])
			}
		}
	})
}

// There is one on-disk format and no decoder for an older one: a version-4
// superblock (summaries that link no chain) is refused, exactly as versions
// 1 to 3 are.
func TestOlderFormatVersionsAreRefused(t *testing.T) {
	lay, err := computeLayout(8<<20, 512, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSuper(encodeSuper(lay)); err != nil {
		t.Fatalf("current version: %v", err)
	}
	for _, v := range []uint32{1, 2, 3, 4} {
		buf := encodeSuper(lay)
		binary.LittleEndian.PutUint32(buf[8:], v)
		binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTable))
		_, err := decodeSuper(buf)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d superblock: decodeSuper returned %v, want ErrFormat \"unsupported version\"", v, err)
		}
	}
}

// TestQuickNewestSlotSelection: with both slots holding valid summaries,
// classifySlots takes the one with the larger write timestamp; with one
// slot corrupted, it takes the other.
func TestQuickNewestSlotSelection(t *testing.T) {
	o := testOptions()
	lay, err := computeLayout(8<<20, 512, o)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		segID := rng.Intn(lay.nSegments)
		region := make([]byte, 2*lay.summarySize)
		ts0 := uint64(1 + rng.Int63n(1<<30))
		ts1 := uint64(1 + rng.Int63n(1<<30))
		if ts0 == ts1 {
			ts1++
		}
		// Encode each slot via a scratch segment buffer.
		scratch := make([]byte, lay.segmentSize)
		for slot, ts := range []uint64{ts0, ts1} {
			r := randomSummary(rng, lay)
			if _, err := encodeSummary(scratch, lay, segID, ts, 0, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples); err != nil {
				return false
			}
			copy(region[slot*lay.summarySize:], scratch[lay.dataCap():lay.dataCap()+lay.summarySize])
		}
		si := classifySlots(region, lay, segID, [2]bool{}).si
		if si == nil {
			return false
		}
		want := ts0
		if ts1 > ts0 {
			want = ts1
		}
		if si.writeTS != want {
			t.Logf("seed %d: picked ts %d, want %d", seed, si.writeTS, want)
			return false
		}
		// Corrupt the winning slot: the other must be returned.
		winSlot := 0
		if ts1 > ts0 {
			winSlot = 1
		}
		region[winSlot*lay.summarySize+10] ^= 0xFF
		si = classifySlots(region, lay, segID, [2]bool{}).si
		if si == nil {
			t.Logf("seed %d: both slots rejected after corrupting one", seed)
			return false
		}
		if si.writeTS == want {
			t.Logf("seed %d: returned the corrupted slot", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
