package lld

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// Micro-benchmarks for the LLD hot paths. Virtual disk time is free in
// wall-clock terms, so these measure the CPU cost of the implementation
// itself (map updates, summary encoding, segment memcpy).

func benchLLD(b *testing.B, capacity int64) *LLD {
	b.Helper()
	d := disk.New(disk.DefaultConfig(capacity))
	o := DefaultOptions()
	if err := Format(d, o); err != nil {
		b.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkWrite4K(b *testing.B) {
	l := benchLLD(b, 256<<20)
	lid, _ := l.NewList(ld.NilList, ld.ListHints{})
	data := bytes.Repeat([]byte{7}, 4096)
	// Overwrite one block repeatedly: map update + segment append.
	blk, _ := l.NewBlock(lid, ld.NilBlock)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Write(blk, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead4K(b *testing.B) {
	l := benchLLD(b, 64<<20)
	lid, _ := l.NewList(ld.NilList, ld.ListHints{})
	blk, _ := l.NewBlock(lid, ld.NilBlock)
	data := bytes.Repeat([]byte{7}, 4096)
	if err := l.Write(blk, data); err != nil {
		b.Fatal(err)
	}
	if err := l.Flush(ld.FailPower); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Read(blk, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead4KDiskVerify measures reads served from the platter (not
// the open segment): the path the CRC verification cost sits on.
// BenchmarkPayloadCRC4K is that cost alone.
func BenchmarkRead4KDiskVerify(b *testing.B) {
	d := disk.New(disk.DefaultConfig(64 << 20))
	o := DefaultOptions()
	if err := Format(d, o); err != nil {
		b.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		b.Fatal(err)
	}
	lid, _ := l.NewList(ld.NilList, ld.ListHints{})
	data := bytes.Repeat([]byte{7}, 4096)
	var blks []ld.BlockID
	prev := ld.NilBlock
	for i := 0; i < 256; i++ {
		blk, err := l.NewBlock(lid, prev)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Write(blk, data); err != nil {
			b.Fatal(err)
		}
		blks = append(blks, blk)
		prev = blk
	}
	// Crash-reopen so no block lives in the in-memory open segment.
	if err := l.Flush(ld.FailPower); err != nil {
		b.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		b.Fatal(err)
	}
	if l, err = Open(d, o); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Read(blks[i%len(blks)], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// crcSink keeps the compiler from discarding the measured call.
var crcSink uint32

func BenchmarkPayloadCRC4K(b *testing.B) {
	data := bytes.Repeat([]byte{7}, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		crcSink = payloadCRC(data)
	}
}

// BenchmarkScrub measures the scrubber's verification throughput: one
// full pass over a disk with ~16 MB of live 4-KB blocks per iteration.
func BenchmarkScrub(b *testing.B) {
	l := benchLLD(b, 64<<20)
	lid, _ := l.NewList(ld.NilList, ld.ListHints{})
	data := bytes.Repeat([]byte{7}, 4096)
	prev := ld.NilBlock
	const nBlocks = 4096
	for i := 0; i < nBlocks; i++ {
		blk, err := l.NewBlock(lid, prev)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Write(blk, data); err != nil {
			b.Fatal(err)
		}
		prev = blk
	}
	if err := l.Flush(ld.FailPower); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(nBlocks * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l.Scrub()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Corrupt) != 0 {
			b.Fatalf("scrub found corruption on a healthy disk: %v", res.Corrupt)
		}
	}
}

func BenchmarkNewDeleteBlock(b *testing.B) {
	l := benchLLD(b, 64<<20)
	lid, _ := l.NewList(ld.NilList, ld.ListHints{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := l.NewBlock(lid, ld.NilBlock)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.DeleteBlock(blk, lid, ld.NilBlock); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverySweep(b *testing.B) {
	d := disk.New(disk.DefaultConfig(64 << 20))
	o := DefaultOptions()
	if err := Format(d, o); err != nil {
		b.Fatal(err)
	}
	l, err := Open(d, o)
	if err != nil {
		b.Fatal(err)
	}
	lid, _ := l.NewList(ld.NilList, ld.ListHints{})
	data := bytes.Repeat([]byte{1}, 4096)
	pred := ld.NilBlock
	for i := 0; i < 2000; i++ {
		blk, err := l.NewBlock(lid, pred)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Write(blk, data); err != nil {
			b.Fatal(err)
		}
		pred = blk
	}
	if err := l.Flush(ld.FailPower); err != nil {
		b.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, err := Open(d, o)
		if err != nil {
			b.Fatal(err)
		}
		if err := l2.Shutdown(false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSummary is a full default-size summary shaped like a small-file
// create phase: per file a new list, two allocations and a 1-KB data
// entry, until the 8-KB summary has no room for the next file.
func benchSummary(b *testing.B) (layout, []byte, summaryRecords) {
	lay, err := computeLayout(16<<20, 512, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	r := summaryRecords{segID: 3, sealed: true}
	ts, off := uint64(1_000_000), 0
	for i := 0; ; i++ {
		bid := ld.BlockID(40_000 + 3*i)
		e := blockEntry{bid: bid, ts: ts + 4, off: uint32(off), stored: 1024, orig: 1024, crc: uint32(i) * 2654435761, flags: entryCommitted}
		tuples := []tupleRec{
			{kind: tNewList, flags: tupleCommitted, ts: ts + 1, args: [7]uint32{uint32(5000 + i), uint32(4999 + i), 1}},
			{kind: tAlloc, flags: tupleCommitted, ts: ts + 2, args: [7]uint32{uint32(bid), uint32(5000 + i), 0, 0, 1}},
			{kind: tAlloc, flags: tupleCommitted, ts: ts + 3, args: [7]uint32{uint32(bid + 1), 2, 0, uint32(bid - 2), 0}},
		}
		entries := append(r.entries, e)
		if summaryBytes(entries, append(r.tuples, tuples...)) > lay.summarySize {
			break
		}
		r.entries, r.tuples = entries, append(r.tuples, tuples...)
		ts, off = ts+6, off+1024
	}
	r.dataBytes, r.writeTS, r.mark = off, ts, ts-100
	return lay, make([]byte, lay.segmentSize), r
}

func BenchmarkEncodeSummary(b *testing.B) {
	lay, seg, r := benchSummary(b)
	b.SetBytes(int64(summaryBytes(r.entries, r.tuples)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSummary(seg, lay, r.segID, r.writeTS, r.mark, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.entries)+len(r.tuples)), "records/summary")
}

func BenchmarkDecodeSummary(b *testing.B) {
	lay, seg, r := benchSummary(b)
	used, err := encodeSummary(seg, lay, r.segID, r.writeTS, r.mark, r.seq, r.next, r.sealed, r.dataBytes, r.entries, r.tuples)
	if err != nil {
		b.Fatal(err)
	}
	img := seg[lay.dataCap() : lay.dataCap()+used]
	b.SetBytes(int64(summaryBytes(r.entries, r.tuples)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeSummary(img, lay, r.segID); err != nil {
			b.Fatal(err)
		}
	}
}
