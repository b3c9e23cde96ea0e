package lld_test

import (
	"bytes"
	"fmt"
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
	l, err := open(back, im.Options())
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	rep := l.RecoveryReport()
	r := &recovered{quarantined: rep.QuarantinedSegments, degraded: rep.DegradedBlocks, data: make(map[ld.BlockID]string)}
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
// and once with the per-block oracle, and demands the same outcome down to
// the bytes recovery left on every leg.
func diffRecoveries(im torture.Image) error {
	got, err := recoverImage(im, lld.Open)
	if err != nil {
		return fmt.Errorf("extent pass: %w", err)
	}
	want, err := recoverImage(im, lld.OpenPerBlockVerify)
	if err != nil {
		return fmt.Errorf("per-block oracle: %w", err)
	}
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
// pass the extent verifier replaced.
func TestExtentPassMatchesPerBlockOracle(t *testing.T) {
	type suite struct {
		kind      string
		maxPoints int
		seeds     []int64
	}
	smoke := []suite{
		{torture.KindLLD, 12, []int64{1}},
		{torture.KindStripe, 10, []int64{1}},
		{torture.KindMirror, 10, []int64{1}},
		{torture.KindReclaim, 8, []int64{1, 2, 3, 5, 8}}, // until one seed yields a quarantined image
		{torture.KindRebuild, 8, []int64{1}},
	}
	if !testing.Short() {
		// Beyond the smoke: every enumerated point of the mirror, where
		// the two passes have the most room to differ (heals).
		smoke = append(smoke, suite{torture.KindMirror, 0, []int64{2}})
	}
	for _, s := range smoke {
		s := s
		t.Run(s.kind, func(t *testing.T) {
			images := 0
			for _, seed := range s.seeds {
				res, err := torture.Run(torture.Config{
					Kind: s.kind, Legs: 2, Seed: seed, Ops: 160, MaxPoints: s.maxPoints,
					OnImage: func(im torture.Image) error {
						images++
						return diffRecoveries(im)
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
			t.Logf("%d crash images compared", images)
		})
	}
}
