package lld

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

func TestOptionsValidation(t *testing.T) {
	base := testOptions()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"zero segment", func(o *Options) { o.SegmentSize = 0 }},
		{"unaligned segment", func(o *Options) { o.SegmentSize = 1000 }},
		{"summary too small", func(o *Options) { o.SummarySize = 16 }},
		{"summary >= segment", func(o *Options) { o.SummarySize = o.SegmentSize }},
		{"block too large", func(o *Options) { o.MaxBlockSize = o.SegmentSize }},
	}
	for _, c := range cases {
		o := base
		c.mut(&o)
		d := disk.New(disk.DefaultConfig(4 << 20))
		if err := Format(d, o); err == nil {
			t.Errorf("%s: Format accepted invalid options", c.name)
		}
	}
	// A disk too small for four segments is rejected.
	tiny := disk.New(disk.DefaultConfig(1 << 20))
	if err := Format(tiny, DefaultOptions()); err == nil {
		t.Error("1-MB disk with 512-KB segments accepted")
	}
}

func TestOpenRejectsUnformattedDisk(t *testing.T) {
	d := disk.New(disk.DefaultConfig(4 << 20))
	if _, err := Open(d, testOptions()); !errors.Is(err, ErrFormat) {
		t.Fatalf("open of blank disk: %v", err)
	}
}

// TestConcurrentAccess exercises the mutex discipline under the race
// detector: parallel readers and writers on disjoint lists.
func TestConcurrentAccess(t *testing.T) {
	_, l := newTestLLD(t, 16<<20, testOptions())
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lid, err := l.NewList(ld.NilList, ld.ListHints{})
			if err != nil {
				errs <- err
				return
			}
			pred := ld.NilBlock
			var ids []ld.BlockID
			for i := 0; i < 50; i++ {
				b, err := l.NewBlock(lid, pred)
				if err != nil {
					errs <- err
					return
				}
				if err := l.Write(b, bytes.Repeat([]byte{byte(w)}, 512)); err != nil {
					errs <- err
					return
				}
				ids = append(ids, b)
				pred = b
			}
			buf := make([]byte, 512)
			for _, b := range ids {
				n, err := l.Read(b, buf)
				if err != nil || n != 512 || buf[0] != byte(w) {
					errs <- err
					return
				}
			}
			if err := l.Flush(ld.FailPower); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDump(t *testing.T) {
	d, l := newTestLLD(t, 4<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	b := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, b, []byte("dumped"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Dump(d, &sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"superblock:", "checkpoint 0", "segment", "alloc", "block"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%.400s", want, out)
		}
	}
	// Dump of a blank disk fails cleanly.
	blank := disk.New(disk.DefaultConfig(4 << 20))
	if err := Dump(blank, &sb, false); err == nil {
		t.Fatal("dump of blank disk succeeded")
	}
}

func TestFlushListUnknownList(t *testing.T) {
	_, l := newTestLLD(t, 4<<20, testOptions())
	if err := l.FlushList(99); !errors.Is(err, ld.ErrBadList) {
		t.Fatalf("FlushList(99): %v", err)
	}
}

func TestSwapWithReservationsAndARU(t *testing.T) {
	_, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	b := mustNewBlock(t, l, lid, a)
	mustWrite(t, l, a, []byte("version-1"))
	mustWrite(t, l, b, []byte("version-2"))
	// The §5.4 multiversion idiom: prepare version 2 in a scratch block,
	// swap it in atomically under an ARU.
	if err := l.BeginARU(); err != nil {
		t.Fatal(err)
	}
	if err := l.SwapContents(a, b); err != nil {
		t.Fatal(err)
	}
	if err := l.EndARU(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, l, a); string(got) != "version-2" {
		t.Fatalf("a=%q", got)
	}
	if err := l.Reserve(2); err != nil {
		t.Fatal(err)
	}
	if err := l.CancelReservation(5); err != nil {
		t.Fatal(err) // over-cancel clamps to zero
	}
	if l.ReservedBytes() != 0 {
		t.Fatal("over-cancel did not clamp")
	}
	if err := l.Reserve(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
	if err := l.CancelReservation(-1); err == nil {
		t.Fatal("negative cancel accepted")
	}
}

// TestRecoveryWithTornCheckpoint: a consolidation checkpoint torn mid-write
// must be ignored; the previous slot (or the plain sweep) takes over.
func TestRecoveryWithTornCheckpoint(t *testing.T) {
	d, l := newTestLLD(t, 8<<20, testOptions())
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	a := mustNewBlock(t, l, lid, ld.NilBlock)
	mustWrite(t, l, a, []byte("survives"))
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, l)

	// Tear the checkpoint write itself.
	d.InjectCrashAfterSectors(1)
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err == nil {
		t.Fatal("torn checkpoint write should error")
	}
	_ = l.Shutdown(false)
	d.ClearCrash()

	l2, err := Open(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	diffState(t, want, captureState(t, l2), "torn checkpoint")
}

func TestSegmentTouchesListKinds(t *testing.T) {
	_, l := newTestLLD(t, 8<<20, testOptions())
	a := mustNewList(t, l, ld.NilList, ld.ListHints{})
	bLst := mustNewList(t, l, a, ld.ListHints{})
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	base := l.Stats().Flushes
	// MoveList touches only the moved list.
	if err := l.MoveList(bLst, ld.NilList, a); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushList(a); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Flushes != base {
		t.Fatal("FlushList(a) flushed after an operation on b only")
	}
	if err := l.FlushList(bLst); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Flushes != base+1 {
		t.Fatal("FlushList(b) did not flush after MoveList(b)")
	}
}
