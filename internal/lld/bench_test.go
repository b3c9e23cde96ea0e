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

func BenchmarkSummaryEncodeDecode(b *testing.B) {
	lay, err := computeLayout(16<<20, 512, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	seg := make([]byte, lay.segmentSize)
	var entries []blockEntry
	var tuples []tupleRec
	for i := 0; i < 120; i++ {
		entries = append(entries, blockEntry{bid: ld.BlockID(i + 1), ts: uint64(i), off: uint32(i * 4096), stored: 4096, orig: 4096, flags: entryCommitted})
		tuples = append(tuples, tupleRec{kind: tAlloc, flags: tupleCommitted, ts: uint64(i), args: [7]uint32{uint32(i + 1), 1, 0, uint32(i), 0}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := encodeSummary(seg, lay, 3, 999, 900, true, 120*4096, entries, tuples); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeSummary(seg[lay.dataCap():], lay, 3); err != nil {
			b.Fatal(err)
		}
	}
}
