package torture

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/lld"
)

// Bounded smoke per topology: every enumerated (sampled) crash point
// must recover to a state the shadow model accepts. The full-breadth
// runs live in ldtest (TestTorture*); these keep `go test ./...` honest.

func smokeConfig(t *testing.T, kind string, maxPoints int) Config {
	return Config{
		Kind:      kind,
		Legs:      2,
		Seed:      1,
		Ops:       160,
		MaxPoints: maxPoints,
		Logf:      t.Logf,
	}
}

func runSmoke(t *testing.T, cfg Config) Result {
	t.Helper()
	var instances []*lld.LLD
	cfg.Opened = func(l *lld.LLD) { instances = append(instances, l) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("torture run: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("crash point failed verification:\n  %s\n  %v", f.Repro, f.Err)
	}
	// The cleaner never reads a victim's summary back: what each summary it
	// needs names is in memory. The bound holds while every victim extent
	// reads and checks: one that does not costs its request and then one
	// per block (readStoredBatch's per-block fallback), 1+n for n blocks.
	for _, l := range instances {
		if n := l.Stats().CleanReads - l.Stats().BlocksMoved; n > 0 {
			t.Errorf("a workload instance's cleaner issued %d more requests than it moved blocks", n)
		}
	}
	return res
}

func TestTortureLLDSmoke(t *testing.T) {
	res := runSmoke(t, smokeConfig(t, KindLLD, 12))
	if res.Points == 0 {
		t.Fatal("no crash points enumerated")
	}
}

func TestTortureStripeSmoke(t *testing.T) {
	res := runSmoke(t, smokeConfig(t, KindStripe, 10))
	if res.Points == 0 {
		t.Fatal("no crash points enumerated")
	}
}

func TestTortureMirrorSmoke(t *testing.T) {
	res := runSmoke(t, smokeConfig(t, KindMirror, 10))
	if res.Points == 0 {
		t.Fatal("no crash points enumerated")
	}
}

func TestTortureReclaimSmoke(t *testing.T) {
	// Reclaim needs the damage search to actually quarantine a segment;
	// an unlucky seed yields zero points, so walk a fixed seed list until
	// one bites. All tried seeds must still verify cleanly.
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		cfg := smokeConfig(t, KindReclaim, 8)
		cfg.Seed = seed
		res := runSmoke(t, cfg)
		if res.Points > 0 {
			if res.ByKind[ptSite] == 0 {
				t.Error("reclaim points enumerated but none site-granular")
			}
			return
		}
	}
	t.Error("no seed in the list produced a quarantined image to reclaim")
}

func TestTortureRebuildSmoke(t *testing.T) {
	res := runSmoke(t, smokeConfig(t, KindRebuild, 8))
	if res.Points == 0 {
		t.Fatal("no rebuild crash points enumerated")
	}
	if res.ByKind[ptRebuild] != res.Points {
		t.Errorf("rebuild enumerated non-rebuild points: %v", res.ByKind)
	}
}

// TestReproRoundTrip checks that a reproducer line replays: same seed,
// same point, same verdict (clean here, since the smoke suite is clean).
func TestReproRoundTrip(t *testing.T) {
	cfg := smokeConfig(t, KindLLD, 0)
	pts, err := enumerate(cfg)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	pt := pts[len(pts)/2]
	repro := Repro(cfg, pt)
	for i := 0; i < 2; i++ {
		if err := Replay(repro); err != nil {
			t.Fatalf("replay %d of %q: %v", i, repro, err)
		}
	}
	if err := Replay("seed=1 point=bogus:3"); err == nil {
		t.Error("bogus reproducer accepted")
	}
	if err := Replay("seed=1 kind=lld"); err == nil || !strings.Contains(err.Error(), "no point") {
		t.Errorf("pointless reproducer: got %v", err)
	}
}

// TestReplayEnv replays the reproducer line in TORTURE_REPRO, for
// debugging failures reported by CI or the long-run sweeps:
//
//	TORTURE_REPRO='seed=42 kind=lld legs=2 ops=300 disk=4194304 point=sector:1326' \
//	  go test ./internal/torture -run TestReplayEnv -v
func TestReplayEnv(t *testing.T) {
	repro := os.Getenv("TORTURE_REPRO")
	if repro == "" {
		t.Skip("set TORTURE_REPRO to a reproducer line")
	}
	if err := Replay(repro); err != nil {
		t.Fatalf("replay %q: %v", repro, err)
	}
}

// TestPointParse covers the point grammar both ways.
func TestPointParse(t *testing.T) {
	cases := []point{
		{kind: ptSector, n: 13},
		{kind: ptOp, n: 7},
		{kind: ptSite, n: 2, site: "reclaim.midclear"},
		{kind: ptRebuild, n: 4},
	}
	for _, want := range cases {
		got, err := parsePoint(want.String())
		if err != nil {
			t.Fatalf("parsePoint(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("parsePoint(%q) = %+v, want %+v", want.String(), got, want)
		}
	}
	for _, bad := range []string{"", "sector", "sector:0", "sector:-3", "site:noocc", "warp:9"} {
		if _, err := parsePoint(bad); err == nil {
			t.Errorf("parsePoint(%q) accepted", bad)
		}
	}
}

// TestEnumerationBreadth asserts the acceptance floor: at default
// workload length the lld + stripe + mirror configs together enumerate
// well over 500 distinct crash points (before MaxPoints sampling). Sector
// points are drawn from the sectors the reference run writes, so a change
// that writes fewer (partial writes and seals that append: about 1,810 ->
// 1,080 on lld at this seed) thins them out at a fixed stride — 627 points
// fell to 459. The floor stays where it is and the default SectorStride
// pays for it (13 -> 8). Packed summaries written only up to their last
// used sector (format v4) thinned them again, 665 -> 518 at stride 8, and
// the stride went to 5 (674). The cleaner's "clean.relogged" site went with
// its re-log, 8 points a topology (650).
func TestEnumerationBreadth(t *testing.T) {
	if testing.Short() {
		t.Skip("reference runs are not instant")
	}
	total := 0
	for _, kind := range []string{KindLLD, KindStripe, KindMirror} {
		cfg := Config{Kind: kind, Legs: 2, Seed: 7, Logf: t.Logf}
		cfg.fillDefaults()
		pts, err := enumerate(cfg)
		if err != nil {
			t.Fatalf("enumerate %s: %v", kind, err)
		}
		t.Logf("%s: %d points", kind, len(pts))
		total += len(pts)
		// The durable mark's two windows are schedule sites on every
		// topology: after the drain that advances it and before a summary
		// says so, and between a seal's data and its summary.
		sites := make(map[string]int)
		for _, pt := range pts {
			if pt.kind == ptSite {
				sites[pt.site]++
			}
		}
		for _, want := range []string{"mark.advanced", "seal.data"} {
			if sites[want] == 0 {
				t.Errorf("%s: no crash point at site %q (sites reached: %v)", kind, want, sites)
			}
		}
	}
	if total < 500 {
		t.Errorf("lld+stripe+mirror enumerate %d crash points, want >= 500", total)
	}
	// A run long enough to take checkpoints (TestCheckpointCrashSites')
	// enumerates a crash at both of each one's sites and inside each of
	// its writes.
	for _, kind := range []string{KindLLD, KindMirror} {
		cfg := Config{Kind: kind, Legs: 2, Seed: 7, Ops: 2000, Logf: t.Logf}
		cfg.fillDefaults()
		_, _, ckpts, err := runReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := enumerate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sites, torn := make(map[string]int), 0
		for _, pt := range pts {
			if pt.kind == ptSite {
				sites[pt.site]++
			}
			for _, c := range ckpts {
				if pt.kind == ptSector && (pt.n == c.payload+2 || pt.n == c.pointer || pt.n == c.pointer+1) {
					torn++
					break
				}
			}
		}
		t.Logf("%s at %d ops: %d points, %d checkpoints: %d at the checkpoint site, %d between payload and pointer, %d inside their writes",
			kind, cfg.Ops, len(pts), len(ckpts), sites["checkpoint"], sites["checkpoint.payload"], torn)
		if sites["checkpoint"] == 0 || sites["checkpoint.payload"] == 0 || torn < 2 {
			t.Errorf("%s: the checkpoints' crash points are missing", kind)
		}
	}
}

// TestCheckpointCrashSites: a run long enough to take checkpoints
// enumerates a crash at each one's schedule sites, before its payload's
// write and between the payload's durable write and its pointer record's,
// and inside its writes (the payload's first two sectors on the platter,
// the rest lost; the pointer record's sector lost, or written with nothing
// after it), and recovery from each verifies, the chain mount held against
// the full sweep included. A reclaim whose mount kept the chain through the segment it
// quarantined enumerates the crash at the first summary write that extends
// that chain.
func TestCheckpointCrashSites(t *testing.T) {
	if testing.Short() {
		t.Skip("reference runs are not instant")
	}
	for _, kind := range []string{KindLLD, KindMirror} {
		cfg := Config{Kind: kind, Legs: 2, Seed: 7, Ops: 2000, Logf: t.Logf}
		cfg.fillDefaults()
		_, sites, ckpts, err := runReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpts) < 2 || sites["checkpoint"] != len(ckpts) {
			t.Fatalf("%s: %d checkpoint sites over %d checkpoint writes, want at least two", kind, sites["checkpoint"], len(ckpts))
		}
		first, last := ckpts[0], ckpts[len(ckpts)-1]
		if sites["checkpoint.payload"] != len(ckpts) || first.pointer <= first.payload {
			t.Fatalf("%s: %d payload-durable sites over %d checkpoints, the first's pointer at %d after its payload at %d",
				kind, sites["checkpoint.payload"], len(ckpts), first.pointer, first.payload)
		}
		pts, err := enumerate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int64{first.payload + 2, first.pointer, first.pointer + 1} {
			if !slices.Contains(pts, point{kind: ptSector, n: at}) {
				t.Errorf("%s: no crash point at sector %d of the first checkpoint's writes", kind, at)
			}
		}
		for _, pt := range []point{
			{kind: ptSite, site: "checkpoint", n: 1},
			{kind: ptSite, site: "checkpoint", n: int64(len(ckpts))},
			{kind: ptSite, site: "checkpoint.payload", n: 1},
			{kind: ptSite, site: "checkpoint.payload", n: int64(len(ckpts))},
			{kind: ptSector, n: first.payload + 2},
			{kind: ptSector, n: first.pointer},
			{kind: ptSector, n: first.pointer + 1},
			{kind: ptSector, n: last.payload + 2},
			{kind: ptSector, n: last.pointer},
		} {
			if err := runPoint(cfg, pt); err != nil {
				t.Errorf("%s\n  %v", Repro(cfg, pt), err)
			}
		}
	}
	cfg := Config{Kind: KindReclaim, Seed: 2, Logf: t.Logf}
	pts, err := enumerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := point{kind: ptSite, site: "chain.quarantined", n: 1}
	if !slices.Contains(pts, pt) {
		t.Fatalf("reclaim enumerates %v, no crash where the chain leads through the quarantined segment", pts)
	}
	if err := runPoint(cfg, pt); err != nil {
		t.Errorf("%s\n  %v", Repro(cfg, pt), err)
	}
}
