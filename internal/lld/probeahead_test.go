package lld

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ld"
)

// lowestFreeAbove is the segment the log should open after seg, computed
// from the usage table alone: the lowest free one above seg, else the lowest
// free one, else -1.
func lowestFreeAbove(l *LLD, seg int) int {
	first := -1
	for i := range l.segs {
		if l.segs[i].state != segFree {
			continue
		}
		if i > seg {
			return i
		}
		if first < 0 {
			first = i
		}
	}
	return first
}

// spinLog rewrites a handful of 4-KB blocks until the log has opened n more
// segments, and returns them in the order it opened them. Every rewrite
// kills the copy before it, so the segments behind the log hold nothing the
// cleaner has to move. Each open is checked against the address-order rule:
// the successor the new segment names is the lowest free segment above it.
func spinLog(t *testing.T, l *LLD, spin []ld.BlockID, n int) []int {
	t.Helper()
	var opened []int
	seq := l.openSeq
	for i := 0; len(opened) < n; i++ {
		if i > 2*n*(l.lay.dataCap()/4096+1) {
			t.Fatalf("%d writes opened %d segments", i, len(opened))
		}
		mustWrite(t, l, spin[i%len(spin)], bytes.Repeat([]byte{byte(i)}, 4096))
		if l.openSeq == seq {
			continue
		}
		if l.openSeq != nextSeq(seq) {
			t.Fatalf("one write opened segments %d through %d", seq+1, l.openSeq)
		}
		seq = l.openSeq
		opened = append(opened, l.cur.id)
		if want := lowestFreeAbove(l, l.cur.id); l.succ != want {
			t.Fatalf("segment %d opened naming successor %d, want the lowest free above it, %d", l.cur.id, l.succ, want)
		}
	}
	return opened
}

// newSpinLLD returns a fresh LLD on a disk of the default geometry and the
// blocks spinLog rewrites.
func newSpinLLD(t *testing.T, capacity int64, opts Options) (*disk.Disk, *LLD, []ld.BlockID) {
	t.Helper()
	d, l := newTestLLD(t, capacity, opts)
	lid := mustNewList(t, l, ld.NilList, ld.ListHints{})
	spin := make([]ld.BlockID, 6)
	for i := range spin {
		spin[i] = mustNewBlock(t, l, lid, ld.NilBlock)
	}
	return d, l, spin
}

// The log opens segments in address order: on a fresh disk 0, 1, 2, …;
// each names as its successor the lowest free segment above it; at the end
// of the disk it wraps to the lowest free one. A segment released behind
// the log waits for the wrap.
func TestLogOpensSegmentsInAddressOrder(t *testing.T) {
	_, l, spin := newSpinLLD(t, 4<<20, testOptions())
	first := l.cur.id
	opened := spinLog(t, l, spin, 10)
	for k, id := range opened {
		if id != first+k+1 {
			t.Fatalf("the log opened %v after segment %d, want them in address order", opened, first)
		}
	}

	// Release a segment behind the log: everything in it died, and the
	// checkpoint that follows its cleaning frees it.
	v := opened[2]
	if l.segs[v].mapped != 0 {
		t.Fatalf("segment %d still maps %d blocks", v, l.segs[v].mapped)
	}
	if err := cleanVictim(l, v); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if l.segs[v].state != segFree || v >= l.cur.id {
		t.Fatalf("segment %d in state %d behind the open %d, want free behind it", v, l.segs[v].state, l.cur.id)
	}

	// The log goes on to the end of the disk, wraps, and takes v in order
	// on its second lap.
	prev, wrapped := l.cur.id, false
	for _, id := range spinLog(t, l, spin, 2*l.lay.nSegments) {
		switch {
		case id > prev && !wrapped && id != v:
		case id < prev && !wrapped:
			wrapped = true
			if id > v {
				t.Fatalf("the log wrapped from %d to %d, past the free segment %d", prev, id, v)
			}
		case id > prev && wrapped:
		case id == v && wrapped:
		default:
			t.Fatalf("the log opened %d after %d (wrapped: %v; released: %d)", id, prev, wrapped, v)
		}
		if id == v {
			return
		}
		prev = id
	}
	t.Fatalf("segment %d, released behind the log, was not opened within two laps", v)
}

// lappedImage is a crash image of an LLD whose log has gone round its disk
// more than once: the segments ahead of the log hold summaries of earlier
// laps. The last checkpoint is followed by chain segments opened since, the
// last of them flushed but open.
func lappedImage(t *testing.T, capacity int64, opts Options, chain int) []byte {
	t.Helper()
	d, l, spin := newSpinLLD(t, capacity, opts)
	spinLog(t, l, spin, 3*l.lay.nSegments/2)
	l.mu.Lock()
	err := l.checkpoint()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	spinLog(t, l, spin, chain)
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	return crashImage(t, d, l)
}

// mountProbing mounts a copy of img on a disk of cfg, reading the summaries
// one at a time when serial is set, and returns the disk, the instance and
// its state with what the read-ahead may change (how many summaries the
// mount read and how long it took) left out.
func mountProbing(t *testing.T, img []byte, cfg disk.Config, opts Options, serial, full bool) (*disk.Disk, *LLD, string) {
	t.Helper()
	d := disk.New(cfg)
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	defer func(was bool) { probeSerially = was }(probeSerially)
	probeSerially = serial
	open := Open
	if full {
		open = OpenFullSweep
	}
	l, err := open(d, opts)
	if err != nil {
		t.Fatalf("recovery (serial %v, full %v): %v", serial, full, err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		t.Fatalf("invariants after recovery (serial %v, full %v): %v", serial, full, viol)
	}
	rep := l.recReport
	rep.SweptSegments, rep.SweepTime, rep.VerifyTime = 0, 0, 0
	return d, l, l.fingerprint() + fmt.Sprintf("report=%+v\n", rep)
}

// A mount whose probes are read ahead recovers what one reading each
// summary as it is asked for recovers — the state, the report apart from
// how many summaries were read and how long that took, and the platter it
// leaves — by the chain and by the full sweep, on images with and without
// a checkpoint of their own, and on one whose log has lapped the disk.
func TestReadAheadMountEqualsTheSerialWalk(t *testing.T) {
	const capacity = 4 << 20
	opts := testOptions()
	images := map[string][]byte{
		"format's checkpoint":  buildCrashedImage(t, capacity, opts, false),
		"a checkpoint halfway": buildCrashedImage(t, capacity, opts, true),
		"a lapped log":         lappedImage(t, capacity, opts, 12),
	}
	readAhead := false
	for name, img := range images {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/full=%v", name, full), func(t *testing.T) {
				cfg := disk.DefaultConfig(capacity)
				sd, sl, serial := mountProbing(t, img, cfg, opts, true, full)
				ad, al, ahead := mountProbing(t, img, cfg, opts, false, full)
				if serial != ahead {
					t.Errorf("state read ahead:\n%s\nread serially:\n%s", ahead, serial)
				}
				if !bytes.Equal(sd.Snapshot(), ad.Snapshot()) {
					t.Error("the two mounts leave different platters")
				}
				s, a := sl.recReport, al.recReport
				if a.SweptSegments < s.SweptSegments {
					t.Errorf("read ahead: %d summaries; serially %d", a.SweptSegments, s.SweptSegments)
				}
				readAhead = readAhead || a.SweptSegments > s.SweptSegments
				t.Logf("chain %d, full sweep %q: read ahead %d summaries in %v, serially %d in %v",
					s.ChainSegments, s.FullSweep, a.SweptSegments, a.SweepTime, s.SweptSegments, s.SweepTime)
			})
		}
	}
	if !readAhead {
		t.Error("no mount read a summary ahead of the walk")
	}
}

// A segment the read-ahead predicts but the chain does not reach — the free
// one after the chain's end, which carries a summary of an earlier lap — is
// read and dropped: unreadable or rotted, it sends the mount to no full
// sweep, is neither quarantined nor zeroed, and the mount recovers what the
// serial walk, which never reads it, recovers.
func TestOffChainSummaryReadAheadChangesNothing(t *testing.T) {
	const capacity = 4 << 20
	opts := testOptions()
	img := lappedImage(t, capacity, opts, 5)
	cfg := disk.DefaultConfig(capacity)
	_, sl, _ := mountProbing(t, img, cfg, opts, true, false)
	tail := sl.succ
	if tail < 0 || sl.recReport.FullSweep != "" {
		t.Fatalf("setup: the serial mount went by %q, ending at %d", sl.recReport.FullSweep, tail)
	}
	off := lowestFreeAbove(sl, tail)
	lay := sl.lay
	probe := disk.New(cfg)
	if err := probe.Restore(img); err != nil {
		t.Fatal(err)
	}
	slot := -1
	sum := make([]byte, lay.summarySize)
	for s := 0; s < 2; s++ {
		if err := probe.ReadAt(sum, lay.sumOff(off, s)); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeSummary(sum, lay, off); err == nil {
			slot = s
		}
	}
	if off <= tail || slot < 0 {
		t.Fatalf("setup: segment %d after the chain's end %d carries no summary of an earlier lap", off, tail)
	}

	damage := map[string]func(d *disk.Disk){
		"unreadable": func(d *disk.Disk) {
			d.InjectUnreadable(lay.sumOff(off, 0)/int64(lay.sectorSize), int64(2*lay.summarySize/lay.sectorSize))
		},
		"rotted": func(d *disk.Disk) { d.CorruptRange(lay.sumOff(off, slot)+summaryHeaderSize, 8, 0x5a) },
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			mount := func(serial bool) (*ioLog, *disk.Disk, *LLD, []byte) {
				d := disk.New(cfg)
				if err := d.Restore(img); err != nil {
					t.Fatal(err)
				}
				hurt(d)
				before := d.Snapshot()
				was := probeSerially
				probeSerially = serial
				rec := &ioLog{Backend: d}
				l, err := Open(rec, opts)
				probeSerially = was
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				return rec, d, l, before
			}
			rec, d, l, before := mount(false)
			read := false
			for _, op := range rec.take('r') {
				read = read || op.off <= lay.sumOff(off, 0) && lay.sumOff(off, 0) < op.off+int64(op.n)
			}
			if !read {
				t.Fatalf("the mount never read segment %d's summaries ahead", off)
			}
			rep := l.RecoveryReport()
			if rep.FullSweep != "" || len(rep.QuarantinedSegments) != 0 || rep.TornSlotsCleared != 0 {
				t.Errorf("mount went by %q, quarantined %v and cleared %d slots; want the chain and nothing touched",
					rep.FullSweep, rep.QuarantinedSegments, rep.TornSlotsCleared)
			}
			if st := l.Stats(); st.SelfHeals != 0 || st.DegradedReads != 0 || l.segs[off].state != segFree {
				t.Errorf("%d heals, %d degraded reads, segment %d in state %d; want none and free", st.SelfHeals, st.DegradedReads, off, l.segs[off].state)
			}
			if name == "rotted" {
				after := d.Snapshot()
				at := lay.sumOff(off, 0)
				if !bytes.Equal(after[at:at+int64(2*lay.summarySize)], before[at:at+int64(2*lay.summarySize)]) {
					t.Errorf("segment %d's summary area changed under the mount", off)
				}
			}
			_, _, ref, _ := mount(true)
			rep.SweptSegments, rep.SweepTime, rep.VerifyTime = 0, 0, 0
			srep := ref.RecoveryReport()
			srep.SweptSegments, srep.SweepTime, srep.VerifyTime = 0, 0, 0
			if got, want := l.fingerprint()+fmt.Sprintf("%+v", rep), ref.fingerprint()+fmt.Sprintf("%+v", srep); got != want {
				t.Errorf("read ahead:\n%s\nserially:\n%s", got, want)
			}
		})
	}
}

// How much the batch saves depends on where the platter puts each next
// summary. On the default geometry the per-track skew (7 sectors, for a
// 1-ms head switch) puts the next segment's summary, 16 tracks on, 0.75 of
// a revolution round from the last: just behind the head once the request
// overhead and the seek are paid, so every serial probe waits a revolution
// more, and the batch, issued soonest first, takes some of them out of
// order and saves them. With no head-switch time the skew is one sector a
// track, the next summary lies 0.25 of a revolution round, and the serial
// walk already reaches each within the revolution: no order of the batch's
// reads does better, and the batch, which stops where the chain ends, reads
// them in the serial order in the serial time.
func TestReadAheadWalkBeatsTheSerialWalkOnlyWhereTheSkewCostsIt(t *testing.T) {
	const capacity = 24 << 20
	opts := DefaultOptions()
	opts.CompressBandwidth = 0
	img := lappedImage(t, capacity, opts, 12)
	noSwitch := disk.DefaultConfig(capacity)
	noSwitch.HeadSwitch = 0
	for _, c := range []struct {
		name   string
		cfg    disk.Config
		faster bool
	}{
		{"default", disk.DefaultConfig(capacity), true},
		{"no head switch", noSwitch, false},
	} {
		_, sl, _ := mountProbing(t, img, c.cfg, opts, true, false)
		_, al, _ := mountProbing(t, img, c.cfg, opts, false, false)
		s, a := sl.recReport, al.recReport
		if s.FullSweep != "" || s.ChainSegments < 10 {
			t.Fatalf("%s: setup: the mount went by %q over %d segments", c.name, s.FullSweep, s.ChainSegments)
		}
		perProbe := func(r RecoveryReport) time.Duration { return r.SweepTime / time.Duration(r.SweptSegments) }
		t.Logf("%s: %d chain segments: serially %v (%v a probe), read ahead %v (%v a probe, %d summaries read)",
			c.name, s.ChainSegments, s.SweepTime, perProbe(s), a.SweepTime, perProbe(a), a.SweptSegments)
		switch {
		case c.faster && a.SweepTime >= s.SweepTime:
			t.Errorf("%s: the chain mount took %v read ahead, %v serially; want it faster", c.name, a.SweepTime, s.SweepTime)
		case !c.faster && a.SweepTime > s.SweepTime:
			t.Errorf("%s: the chain mount took %v read ahead, %v serially; want it no slower", c.name, a.SweepTime, s.SweepTime)
		}
	}
}
