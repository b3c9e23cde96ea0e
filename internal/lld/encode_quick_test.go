package lld

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ld"
)

// randomSummary builds a random-but-encodable record set for one segment,
// with a durable mark below its write timestamp.
func randomSummary(rng *rand.Rand, lay layout) (int, uint64, uint64, bool, []blockEntry, []tupleRec) {
	dataBytes := rng.Intn(lay.dataCap() + 1)
	writeTS := uint64(1 + rng.Int63n(1<<40))
	mark := uint64(rng.Int63n(int64(writeTS)))
	sealed := rng.Intn(2) == 0
	space := lay.summarySize - summaryHeaderSize

	var entries []blockEntry
	for space >= blockEntryEncSize && rng.Intn(4) != 0 {
		e := blockEntry{
			bid:    ld.BlockID(1 + rng.Intn(1<<20)),
			ts:     uint64(rng.Int63n(1 << 40)),
			off:    uint32(rng.Intn(lay.dataCap())),
			stored: uint32(rng.Intn(lay.maxBlockSize + 1)),
			orig:   uint32(rng.Intn(lay.maxBlockSize + 1)),
			flags:  uint8(rng.Intn(4)),
		}
		entries = append(entries, e)
		space -= blockEntryEncSize
	}
	kinds := []uint8{tAlloc, tFree, tNewList, tDelList, tMoveList, tCommit,
		tBlockState, tBlockFree, tListState, tDataAt, tFence}
	var tuples []tupleRec
	for rng.Intn(4) != 0 {
		t := tupleRec{
			kind:  kinds[rng.Intn(len(kinds))],
			flags: uint8(rng.Intn(2)),
			ts:    uint64(rng.Int63n(1 << 40)),
		}
		for i := 0; i < tupleArgc[t.kind]; i++ {
			t.args[i] = rng.Uint32()
		}
		if space < t.encSize() {
			break
		}
		space -= t.encSize()
		tuples = append(tuples, t)
	}
	return dataBytes, writeTS, mark, sealed, entries, tuples
}

// TestQuickSummaryRoundTrip: encode/decode of a segment summary is the
// identity on every field for arbitrary record sets that fit.
func TestQuickSummaryRoundTrip(t *testing.T) {
	o := testOptions()
	lay, err := computeLayout(8<<20, 512, o)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, lay.segmentSize)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dataBytes, writeTS, mark, sealed, entries, tuples := randomSummary(rng, lay)
		segID := rng.Intn(lay.nSegments)
		if err := encodeSummary(buf, lay, segID, writeTS, mark, sealed, dataBytes, entries, tuples); err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		si, err := decodeSummary(buf[lay.dataCap():lay.dataCap()+lay.summarySize], lay, segID)
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if si.segID != segID || si.writeTS != writeTS || si.mark != mark || si.sealed != sealed || si.dataBytes != dataBytes {
			t.Logf("seed %d: header mismatch", seed)
			return false
		}
		if len(si.entries) != len(entries) || len(si.tuples) != len(tuples) {
			t.Logf("seed %d: count mismatch", seed)
			return false
		}
		for i := range entries {
			if si.entries[i] != entries[i] {
				t.Logf("seed %d: entry %d mismatch", seed, i)
				return false
			}
		}
		for i := range tuples {
			if !reflect.DeepEqual(si.tuples[i], tuples[i]) {
				t.Logf("seed %d: tuple %d mismatch: %+v vs %+v", seed, i, si.tuples[i], tuples[i])
				return false
			}
		}
		// A foreign segment id must be rejected.
		if _, err := decodeSummary(buf[lay.dataCap():lay.dataCap()+lay.summarySize], lay, segID+1); err == nil {
			t.Logf("seed %d: accepted foreign segment id", seed)
			return false
		}
		// A summary never vouches for itself: a mark at or above its own
		// write timestamp is not one lld can have written.
		for _, bad := range []uint64{writeTS, writeTS + 1 + uint64(rng.Int63n(1<<20))} {
			if err := encodeSummary(buf, lay, segID, writeTS, bad, sealed, dataBytes, entries, tuples); err != nil {
				t.Logf("seed %d: encode: %v", seed, err)
				return false
			}
			if _, err := decodeSummary(buf[lay.dataCap():lay.dataCap()+lay.summarySize], lay, segID); !errors.Is(err, ErrFormat) {
				t.Logf("seed %d: mark %d at write timestamp %d: decode returned %v", seed, bad, writeTS, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// There is one on-disk format and no decoder for an older one: a version-2
// superblock (summary headers without the durable mark) is refused, exactly
// as version 1 is.
func TestOlderFormatVersionsAreRefused(t *testing.T) {
	lay, err := computeLayout(8<<20, 512, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSuper(encodeSuper(lay)); err != nil {
		t.Fatalf("current version: %v", err)
	}
	for _, v := range []uint32{1, 2} {
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
// decodeNewestSummary returns the one with the larger write timestamp; with
// one slot corrupted, it returns the other.
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
			_, _, _, sealed, entries, tuples := randomSummary(rng, lay)
			if err := encodeSummary(scratch, lay, segID, ts, 0, sealed, 0, entries, tuples); err != nil {
				return false
			}
			copy(region[slot*lay.summarySize:], scratch[lay.dataCap():lay.dataCap()+lay.summarySize])
		}
		si, err := decodeNewestSummary(region, lay, segID)
		if err != nil {
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
		si, err = decodeNewestSummary(region, lay, segID)
		if err != nil {
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
