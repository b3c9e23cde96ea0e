package lld_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/mdisk"
	"repro/internal/torture"
)

// recovered is everything about one recovery of a crash image that the
// way its payloads were read back could possibly have changed.
type recovered struct {
	quarantined []lld.QuarantinedSegment
	degraded    []ld.BlockID
	heals       int64                 // copies the mirror healed during Open
	lists       []ld.ListID           // list of lists
	members     [][]ld.BlockID        // blocks of each, in order
	data        map[ld.BlockID]string // payload of every readable block; "" + error text otherwise
	legs        [][]byte              // every leg's bytes once recovery's writes are drained

	skipped int64 // segments left unread at or below the durable mark; not compared
}

func legsOf(back disk.Backend) []disk.Backend {
	switch b := back.(type) {
	case *mdisk.Mirror:
		legs := make([]disk.Backend, b.Replicas())
		for i := range legs {
			legs[i] = b.Child(i)
		}
		return legs
	case *mdisk.Stripe:
		legs := make([]disk.Backend, b.Backends())
		for i := range legs {
			legs[i] = b.Child(i)
		}
		return legs
	}
	return []disk.Backend{back}
}

func recoverImage(im torture.Image, open func(disk.Backend, lld.Options) (*lld.LLD, error)) (*recovered, error) {
	back, done, err := im.Mount()
	if err != nil {
		return nil, err
	}
	defer done()
	return recoverBackend(back, im.Options(), open)
}

// recoverBackend mounts back with open and records the outcome. It writes
// to back: recovery's own repairs are part of what is compared.
func recoverBackend(back disk.Backend, opts lld.Options, open func(disk.Backend, lld.Options) (*lld.LLD, error)) (*recovered, error) {
	l, err := open(back, opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if viol := l.CheckInvariants(); len(viol) != 0 {
		return nil, fmt.Errorf("invariants: %v", viol)
	}
	rep := l.RecoveryReport()
	r := &recovered{quarantined: rep.QuarantinedSegments, degraded: rep.DegradedBlocks, data: make(map[ld.BlockID]string),
		skipped: rep.VerifySkippedSegments}
	if m, ok := back.(*mdisk.Mirror); ok {
		r.heals = m.Stats().Heals
	}
	if r.lists, err = l.Lists(); err != nil {
		return nil, err
	}
	buf := make([]byte, l.MaxBlockSize())
	for _, lid := range r.lists {
		blocks, err := l.ListBlocks(lid)
		if err != nil {
			return nil, err
		}
		r.members = append(r.members, blocks)
		for _, b := range blocks {
			if n, err := l.Read(b, buf); err != nil {
				r.data[b] = "unreadable: " + err.Error()
			} else {
				r.data[b] = "=" + string(buf[:n])
			}
		}
	}
	if err := l.Shutdown(false); err != nil {
		return nil, err
	}
	if s, ok := back.(disk.Syncer); ok {
		if err := s.Sync(); err != nil {
			return nil, err
		}
	}
	for _, leg := range legsOf(back) {
		b := make([]byte, leg.Capacity())
		if err := leg.ReadAt(b, 0); err != nil {
			return nil, err
		}
		r.legs = append(r.legs, b)
	}
	return r, nil
}

// diffRecoveries mounts one crash image twice, once with the extent pass
// bounded by the durable mark and once with the per-block oracle, which
// reads every mapped block, and demands the same outcome down to the bytes
// recovery left on every leg. bit reports that the bound left at least one
// segment unread: only then did the comparison prove anything about it.
func diffRecoveries(im torture.Image) (bit bool, err error) {
	got, err := recoverImage(im, lld.Open)
	if err != nil {
		return false, fmt.Errorf("extent pass: %w", err)
	}
	want, err := recoverImage(im, lld.OpenPerBlockVerify)
	if err != nil {
		return false, fmt.Errorf("per-block oracle: %w", err)
	}
	return got.skipped > 0, got.diff(want)
}

func (got *recovered) diff(want *recovered) error {
	switch {
	case !reflect.DeepEqual(got.quarantined, want.quarantined):
		return fmt.Errorf("quarantined %v, oracle %v", got.quarantined, want.quarantined)
	case !reflect.DeepEqual(got.degraded, want.degraded):
		return fmt.Errorf("degraded blocks %v, oracle %v", got.degraded, want.degraded)
	case got.heals != want.heals:
		return fmt.Errorf("%d copies healed, oracle %d (quarantined %v)", got.heals, want.heals, got.quarantined)
	case !reflect.DeepEqual(got.lists, want.lists) || !reflect.DeepEqual(got.members, want.members):
		return fmt.Errorf("lists %v %v, oracle %v %v", got.lists, got.members, want.lists, want.members)
	case !reflect.DeepEqual(got.data, want.data):
		return fmt.Errorf("readable blocks differ from the oracle's")
	}
	for i := range got.legs {
		if !bytes.Equal(got.legs[i], want.legs[i]) {
			return fmt.Errorf("leg %d differs from the oracle's after recovery", i)
		}
	}
	return nil
}

// TestExtentPassMatchesPerBlockOracle runs the tier-1 torture smoke
// (internal/torture's configurations: every topology, the same seeds and
// crash points) with every crash image also recovered by the per-block
// pass the extent verifier replaced — which is also the proof that the
// durable mark bounds the read-back without missing anything. At 160
// operations almost nothing lies below the mark, so the longer runs must
// show images where the bound bites.
func TestExtentPassMatchesPerBlockOracle(t *testing.T) {
	type suite struct {
		kind      string // also the subtest's name: a repeated kind runs as kind#01, …
		ops       int
		maxPoints int
		seeds     []int64
		bites     bool // at least half of the images must have skipped a segment
	}
	smoke := []suite{
		{torture.KindLLD, 160, 12, []int64{1}, false},
		{torture.KindStripe, 160, 10, []int64{1}, false},
		{torture.KindMirror, 160, 10, []int64{1}, false},
		{torture.KindReclaim, 160, 8, []int64{1, 2, 3, 5, 8}, false}, // until one seed yields a quarantined image
		{torture.KindRebuild, 160, 8, []int64{1}, false},
	}
	if !testing.Short() {
		smoke = append(smoke,
			// Beyond the smoke: every enumerated point of the mirror, where
			// the two passes have the most room to differ (heals).
			suite{torture.KindMirror, 160, 0, []int64{2}, false},
			// Long enough for drains, seals and cleanings to pile segments
			// up below the mark.
			suite{torture.KindLLD, 700, 120, []int64{2}, true},
			suite{torture.KindMirror, 700, 80, []int64{3}, true})
	}
	for _, s := range smoke {
		s := s
		t.Run(s.kind, func(t *testing.T) {
			images, bit := 0, 0
			for _, seed := range s.seeds {
				res, err := torture.Run(torture.Config{
					Kind: s.kind, Legs: 2, Seed: seed, Ops: s.ops, MaxPoints: s.maxPoints,
					OnImage: func(im torture.Image) error {
						images++
						skipped, err := diffRecoveries(im)
						if skipped {
							bit++
						}
						return err
					},
				})
				if err != nil {
					t.Fatalf("torture run: %v", err)
				}
				for _, f := range res.Failures {
					t.Errorf("%s\n  %v", f.Repro, f.Err)
				}
				if res.Points > 0 {
					break
				}
			}
			if images == 0 {
				t.Fatal("no crash image was compared")
			}
			t.Logf("%d ops: %d crash images compared, %d with segments at or below the mark left unread", s.ops, images, bit)
			if s.bites && 2*bit < images {
				t.Errorf("the bound bit on %d of %d images; the comparison needs at least half", bit, images)
			}
		})
	}
}

// diffPlatter is diffRecoveries for one platter image, mounted behind a
// write-back cache as it was written.
func diffPlatter(img []byte, opts lld.Options) (skipped int64, err error) {
	mount := func(open func(disk.Backend, lld.Options) (*lld.LLD, error)) (*recovered, error) {
		plat := disk.New(disk.DefaultConfig(int64(len(img))))
		if err := plat.Restore(img); err != nil {
			return nil, err
		}
		return recoverBackend(disk.NewWBCache(plat, disk.NewRail()), opts, open)
	}
	got, err := mount(lld.Open)
	if err != nil {
		return 0, fmt.Errorf("extent pass: %w", err)
	}
	want, err := mount(lld.OpenPerBlockVerify)
	if err != nil {
		return 0, fmt.Errorf("per-block oracle: %w", err)
	}
	return got.skipped, got.diff(want)
}

// A mark a summary carries never exceeds what a completed drain covered:
// random writes, flushes and cleanings behind a write-back cache, the power
// cut at a random accepted sector with a random half of the cached sectors
// lost, and the bounded pass must find what the unbounded per-block pass
// finds — same quarantine, same degraded blocks, same readable bytes, same
// platter afterwards. Were a mark ever ahead of the platter, a dropped sector
// below it would show as a segment the oracle quarantines and the bounded
// pass does not. Every other history is cut twice, the instance recovering
// and running on in between: what the first cut cost must still be reported
// after the second, however far the drains in between have carried the mark.
func TestBoundedPassMatchesOracleOnRandomPowerCuts(t *testing.T) {
	images, ops := 80, 900
	if testing.Short() {
		images = 16
	}
	opts := lld.DefaultOptions()
	opts.SegmentSize, opts.SummarySize, opts.CompressBandwidth = 32<<10, 4<<10, 0
	bit, twice := 0, 0 // images the bound left something unread on; second cuts of an already degraded image
	for seed := int64(1); seed <= int64(images); seed++ {
		rng := rand.New(rand.NewSource(seed))
		plat, rail := disk.New(disk.DefaultConfig(1<<20)), disk.NewRail()
		cache := disk.NewWBCache(plat, rail)
		if err := lld.Format(cache, opts); err != nil {
			t.Fatal(err)
		}
		var l *lld.LLD
		var lid ld.ListID
		var ids []ld.BlockID
		for cut := int64(0); cut <= seed%2; cut++ {
			// Boot — the second time on what the first cut left — and run on
			// with what survived.
			var err error
			if l, err = lld.Open(cache, opts); err != nil {
				t.Fatalf("seed %d: open after %d cuts: %v", seed, cut, err)
			}
			if cut == 0 {
				if lid, err = l.NewList(ld.NilList, ld.ListHints{}); err != nil {
					t.Fatal(err)
				}
			} else {
				if l.RecoveryReport().Degraded() {
					twice++
				}
				if lists, _ := l.Lists(); len(lists) == 0 {
					break
				}
				n := 0
				for _, b := range ids {
					if _, err := l.BlockSize(b); err == nil {
						ids[n] = b
						n++
					}
				}
				ids = ids[:n]
			}
			// Early cuts find little below the mark, late ones a disk the
			// cleaner has been over several times.
			rail.Arm(200+rng.Int63n(6000), seed+cut)
			for i := 0; err == nil && i < ops && !rail.Lost(); i++ {
				switch p := rng.Intn(100); {
				case len(ids) < 24 || p < 4:
					var b ld.BlockID
					if b, err = l.NewBlock(lid, ld.NilBlock); err == nil {
						ids = append(ids, b)
						err = l.Write(b, bytes.Repeat([]byte{byte(seed), byte(i)}, 1+rng.Intn(2048)))
					}
				case p < 80:
					err = l.Write(ids[rng.Intn(len(ids))], bytes.Repeat([]byte{byte(seed), byte(i)}, 1+rng.Intn(2048)))
				case p < 95:
					err = l.Flush(ld.FailPower)
				default:
					_, err = l.Clean(1 + rng.Intn(2))
				}
			}
			if err != nil && !rail.Lost() {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rail.PowerLoss(seed + cut) // a budget the run did not reach: cut now
			_ = l.Shutdown(false)
			rail.Restart()
		}

		skipped, err := diffPlatter(plat.Snapshot(), opts)
		if err != nil {
			t.Errorf("seed %d (%d segments at or below the mark): %v", seed, skipped, err)
		}
		if skipped > 0 {
			bit++
		}
	}
	t.Logf("%d of %d crash images had segments at or below the mark; %d were the second cut of a degraded image", bit, images, twice)
	if bit < images/2 {
		t.Errorf("the bound left something unread on only %d of %d images; the comparison proves little", bit, images)
	}
	if twice == 0 && !testing.Short() {
		t.Error("no history was cut a second time after a degraded recovery")
	}
}
