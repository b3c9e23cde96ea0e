package lld_test

import (
	"testing"

	"repro/internal/lld"
	"repro/internal/torture"
)

// Every crash image of the torture smoke, on every topology, mounts to the
// same state by the checkpoint's chain as by the full sweep: the harness
// holds the two against each other at every point (lld.CompareChainMount),
// and a difference is a failure of the run. A power cut alone seldom leaves
// the walk anything to doubt (lld drains before a segment's first summary
// write, so only that write's own tear can), so the mount of nearly every
// image goes by the chain; chain_test.go builds each fallback on purpose.
func TestTortureChainMountsMatchFullSweep(t *testing.T) {
	chained, swept := 0, 0
	for _, kind := range []string{torture.KindLLD, torture.KindStripe, torture.KindMirror, torture.KindReclaim, torture.KindRebuild} {
		cfg := torture.Config{Kind: kind, Legs: 2, Seed: 1, Ops: 160, MaxPoints: 10, Logf: t.Logf}
		cfg.OnImage = func(im torture.Image) error {
			back, done, err := im.Mount()
			if err != nil {
				return err
			}
			defer done()
			l, err := lld.Open(back, im.Options())
			if err != nil {
				return err
			}
			if l.RecoveryReport().FullSweep == "" {
				chained++
			} else {
				swept++
			}
			return l.Shutdown(false)
		}
		res, err := torture.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, f := range res.Failures {
			t.Errorf("%s\n  %v", f.Repro, f.Err)
		}
	}
	t.Logf("%d images mounted by the chain, %d by the full sweep", chained, swept)
	if chained == 0 {
		t.Error("no image was mounted by the chain")
	}
}
