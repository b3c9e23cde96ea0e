package lld_test

import (
	"fmt"
	"testing"

	"repro/internal/lld"
	"repro/internal/torture"
)

// TestRelogMatchesSummaryReadBackOnTortureHistories runs the torture
// workloads — reference run and crash points, single disk, stripe and
// mirror — with every victim of every workload instance audited: what the
// cleaner restated from the usage table's names and the segment's stamp
// against what it restated when it read the victim's summary back
// (lld.RelogAudit). The long single-disk history consolidates dozens of
// times; the two agree fact for fact on every victim all the same, and the
// test holds them to that. The histories that make them differ, in the two
// ways the audit admits, are the consolidation soak's.
func TestRelogMatchesSummaryReadBackOnTortureHistories(t *testing.T) {
	type suite struct {
		kind      string
		ops       int
		maxPoints int
		seed      int64
	}
	suites := []suite{
		{torture.KindLLD, 300, 10, 1},
		{torture.KindStripe, 300, 6, 1},
		{torture.KindMirror, 300, 6, 1},
	}
	if !testing.Short() {
		suites = append(suites, suite{torture.KindLLD, 700, 40, 2}, suite{torture.KindMirror, 700, 20, 3})
	}
	for _, s := range suites {
		s := s
		t.Run(fmt.Sprintf("%s/%d ops", s.kind, s.ops), func(t *testing.T) {
			var audits []*lld.RelogAudit
			var instances []*lld.LLD
			res, err := torture.Run(torture.Config{
				Kind: s.kind, Legs: 2, Seed: s.seed, Ops: s.ops, MaxPoints: s.maxPoints,
				Instrument: func(o *lld.Options) func(*lld.LLD) {
					a := lld.AuditRelog(o, t.Errorf)
					audits = append(audits, a)
					return func(l *lld.LLD) {
						instances = append(instances, l)
						a.Attach(l)
					}
				},
			})
			if err != nil {
				t.Fatalf("torture run: %v", err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s\n  %v", f.Repro, f.Err)
			}
			var victims, equal, unread int
			for _, a := range audits {
				victims += a.Victims
				equal += a.Equal
				unread += a.Unread
			}
			var consolidations int64
			for _, l := range instances {
				consolidations += l.Stats().Consolidations
			}
			t.Logf("%d instances, %d consolidations, %d victims audited (%d more after the power went), all equal: %v",
				len(audits), consolidations, victims, unread, equal == victims)
			if victims == 0 {
				t.Fatal("no victim was audited")
			}
			if equal != victims {
				t.Errorf("%d of %d victims restated exactly the reference's facts, want all", equal, victims)
			}
		})
	}
}
