// Package torture is the deterministic power-failure torture harness.
//
// It drives a seeded workload against a Logical Disk built over
// volatile write-cache backends (disk.WBCache on a shared
// disk.PowerRail), cuts the simulated power at an enumerated crash
// point — every Nth accepted sector, every Nth workload operation, or a
// named schedule site inside a maintenance pass — restarts, runs
// recovery, and verifies the recovered state against a shadow logical
// model (model.go). Power loss persists a seeded-PRNG-chosen subset of
// the cached sectors and may tear the boundary sector, so recovery is
// exercised against reordered and torn persistence, not just in-order
// prefixes.
//
// Every failure is reported with a one-line reproducer ("seed=… kind=…
// … point=…") that Replay re-executes deterministically.
package torture

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/mdisk"
)

// Topology kinds.
const (
	KindLLD     = "lld"     // single cached disk
	KindStripe  = "stripe"  // RAID-0 over cached legs
	KindMirror  = "mirror"  // RAID-1 over cached legs
	KindReclaim = "reclaim" // quarantine image, then crash inside Scrub/ReclaimQuarantined
	KindRebuild = "rebuild" // 2-way mirror, crash mid-rebuild with concurrent writes
)

// Config parameterizes one torture run (one topology, one seed).
type Config struct {
	Kind      string // topology (Kind* constants); default KindLLD
	Legs      int    // stripe/mirror width; default 2
	Seed      int64  // master seed: workload, loss PRNG, everything
	Ops       int    // workload length; default 300
	DiskBytes int64  // per-leg platter size; default 4 MiB

	SectorStride int64 // crash point every Nth accepted sector; default 5
	OpStride     int   // crash point every Nth op; default 11 (stripe: 3)
	SiteCap      int   // max points per named schedule site; default 8
	MaxPoints    int   // cap on total points (evenly sampled); 0 = all

	Logf func(format string, args ...any) // progress/failure log; default silent

	// OnImage, when set, is shown every crash image just before recovery
	// mounts it; an error fails the crash point. The rig itself is not
	// touched: the hook mounts private copies.
	OnImage func(Image) error

	// Opened, when set, is given every instance a workload runs on, once
	// it is open.
	Opened func(*lld.LLD)
}

func (c *Config) fillDefaults() {
	if c.Kind == "" {
		c.Kind = KindLLD
	}
	if c.Legs == 0 {
		c.Legs = 2
	}
	if c.Ops == 0 {
		c.Ops = 300
	}
	if c.DiskBytes == 0 {
		c.DiskBytes = 4 << 20
	}
	if c.SectorStride == 0 {
		// Dense enough that the default lld, stripe and mirror runs
		// together keep over 500 points (TestEnumerationBreadth).
		c.SectorStride = 5
	}
	if c.OpStride == 0 {
		if c.Kind == KindStripe {
			c.OpStride = 3
		} else {
			c.OpStride = 11
		}
	}
	if c.SiteCap == 0 {
		c.SiteCap = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

func (c Config) legCount() int {
	switch c.Kind {
	case KindLLD, KindReclaim:
		return 1
	case KindRebuild:
		return 2
	default:
		return c.Legs
	}
}

// DefaultConfigs is the standard suite: every topology at one seed.
func DefaultConfigs(seed int64) []Config {
	return []Config{
		{Kind: KindLLD, Seed: seed},
		{Kind: KindStripe, Legs: 2, Seed: seed},
		{Kind: KindMirror, Legs: 2, Seed: seed},
		{Kind: KindReclaim, Seed: seed},
		{Kind: KindRebuild, Seed: seed},
	}
}

// Failure is one crash point whose recovered state failed verification.
type Failure struct {
	Repro string // replayable reproducer line
	Err   error
}

// Result summarizes one Run.
type Result struct {
	Config   Config
	Points   int            // crash points executed
	ByKind   map[string]int // points per point kind (sector/op/site/rebuild)
	Failures []Failure
}

// Crash point kinds.
const (
	ptSector  = "sector"  // power loss when the Nth post-format sector is accepted
	ptOp      = "op"      // power loss after the Nth workload operation
	ptSite    = "site"    // power loss at the Nth occurrence of a schedule site
	ptRebuild = "rebuild" // power loss at the Nth mirror-rebuild progress step
)

// Point kind labels as they appear in Result.ByKind and reproducer lines.
const (
	PointSector  = ptSector
	PointOp      = ptOp
	PointSite    = ptSite
	PointRebuild = ptRebuild
)

type point struct {
	kind string
	n    int64
	site string // ptSite only
}

func (p point) String() string {
	if p.kind == ptSite {
		return fmt.Sprintf("site:%s@%d", p.site, p.n)
	}
	return fmt.Sprintf("%s:%d", p.kind, p.n)
}

func parsePoint(s string) (point, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return point{}, fmt.Errorf("torture: bad point %q", s)
	}
	var p point
	p.kind = kind
	numPart := rest
	if kind == ptSite {
		site, occ, ok := strings.Cut(rest, "@")
		if !ok {
			return point{}, fmt.Errorf("torture: bad site point %q", s)
		}
		p.site = site
		numPart = occ
	}
	n, err := strconv.ParseInt(numPart, 10, 64)
	if err != nil || n <= 0 {
		return point{}, fmt.Errorf("torture: bad point %q", s)
	}
	p.n = n
	switch kind {
	case ptSector, ptOp, ptSite, ptRebuild:
		return p, nil
	}
	return point{}, fmt.Errorf("torture: unknown point kind %q", kind)
}

// Repro renders the one-line reproducer for a config + point.
func Repro(cfg Config, pt point) string {
	cfg.fillDefaults()
	return fmt.Sprintf("seed=%d kind=%s legs=%d ops=%d disk=%d point=%s",
		cfg.Seed, cfg.Kind, cfg.Legs, cfg.Ops, cfg.DiskBytes, pt)
}

// Replay re-executes the single crash point named by a reproducer line
// (as printed in Failure.Repro). A nil return means the recovered state
// verified clean this time.
func Replay(repro string) error {
	var cfg Config
	var pt point
	havePoint := false
	for _, tok := range strings.Fields(repro) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("torture: bad reproducer token %q", tok)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("torture: bad seed %q", val)
			}
			cfg.Seed = n
		case "kind":
			cfg.Kind = val
		case "legs":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("torture: bad legs %q", val)
			}
			cfg.Legs = n
		case "ops":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("torture: bad ops %q", val)
			}
			cfg.Ops = n
		case "disk":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("torture: bad disk %q", val)
			}
			cfg.DiskBytes = n
		case "point":
			p, err := parsePoint(val)
			if err != nil {
				return err
			}
			pt, havePoint = p, true
		default:
			return fmt.Errorf("torture: unknown reproducer key %q", key)
		}
	}
	if !havePoint {
		return fmt.Errorf("torture: reproducer has no point=")
	}
	cfg.fillDefaults()
	return runPoint(cfg, pt)
}

// Run enumerates this config's crash points and executes every one.
// The returned error reports harness-level trouble (the reference run
// itself failing); verification failures land in Result.Failures.
func Run(cfg Config) (Result, error) {
	cfg.fillDefaults()
	pts, err := enumerate(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg, ByKind: make(map[string]int)}
	for _, pt := range pts {
		res.Points++
		res.ByKind[pt.kind]++
		if err := runPoint(cfg, pt); err != nil {
			res.Failures = append(res.Failures, Failure{Repro: Repro(cfg, pt), Err: err})
			cfg.Logf("TORTURE FAIL %s: %v", Repro(cfg, pt), err)
		}
	}
	cfg.Logf("torture %s: %d points (%v), %d failures",
		cfg.Kind, res.Points, res.ByKind, len(res.Failures))
	return res, nil
}

// mixSeed derives independent per-purpose seeds from the master seed,
// mirroring disk.WBCache's per-cache derivation.
func mixSeed(seed, salt int64) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*uint64(salt+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// rig is the composed storage under test: cached platters on one power
// rail, assembled per the config's topology.
type rig struct {
	cfg    Config
	rail   *disk.PowerRail
	caches []*disk.WBCache
	back   disk.Backend
	mirror *mdisk.Mirror
	stripe *mdisk.Stripe
}

func newRig(cfg Config) (*rig, error) {
	r := &rig{cfg: cfg, rail: disk.NewRail()}
	for i := 0; i < cfg.legCount(); i++ {
		d := disk.New(disk.DefaultConfig(cfg.DiskBytes))
		r.caches = append(r.caches, disk.NewWBCache(d, r.rail))
	}
	return r, r.compose(false)
}

// compose (re)builds the topology over the existing caches. After a
// simulated reboot the composites are rebuilt from scratch — mirror
// replica states and stripe worker queues do not survive power loss —
// and a rebuilt mirror marks all chunks written, since its blank-disk
// bookkeeping is gone.
func (r *rig) compose(afterRestart bool) error {
	if r.stripe != nil {
		r.stripe.Close()
		r.stripe = nil
	}
	r.mirror = nil
	backends := make([]disk.Backend, len(r.caches))
	for i, c := range r.caches {
		backends[i] = c
	}
	switch r.cfg.Kind {
	case KindLLD, KindReclaim:
		r.back = r.caches[0]
	case KindStripe:
		s, err := mdisk.NewStripe(backends...)
		if err != nil {
			return err
		}
		r.stripe = s
		r.back = s
	case KindMirror, KindRebuild:
		m, err := mdisk.NewMirror(backends...)
		if err != nil {
			return err
		}
		if afterRestart {
			m.MarkAllWritten()
		}
		r.mirror = m
		r.back = m
	default:
		return fmt.Errorf("torture: unknown kind %q", r.cfg.Kind)
	}
	return nil
}

func (r *rig) sync() error {
	if s, ok := r.back.(disk.Syncer); ok {
		return s.Sync()
	}
	return nil
}

func (r *rig) close() {
	if r.stripe != nil {
		r.stripe.Close()
	}
}

// Image is one crash image as recovery is about to find it: the bytes of
// every leg after the restart, and the topology to mount them in.
type Image struct {
	cfg  Config
	legs [][]byte
}

// image copies the rig's legs as reads see them (a post-restart rebuild
// may have left sectors in the caches).
func (r *rig) image() (Image, error) {
	im := Image{cfg: r.cfg}
	for _, c := range r.caches {
		b := make([]byte, c.Capacity())
		if err := c.ReadAt(b, 0); err != nil {
			return Image{}, err
		}
		im.legs = append(im.legs, b)
	}
	return im, nil
}

// Options returns the lld options recovery mounts the image with.
func (im Image) Options() lld.Options { return tortureOptions(nil) }

// Mount composes a private copy of the image, as the rig is composed
// after a restart, and returns its backend. Call done when finished.
func (im Image) Mount() (back disk.Backend, done func(), err error) {
	r := &rig{cfg: im.cfg, rail: disk.NewRail()}
	for _, b := range im.legs {
		d := disk.New(disk.DefaultConfig(im.cfg.DiskBytes))
		if err := d.Restore(b); err != nil {
			return nil, nil, err
		}
		r.caches = append(r.caches, disk.NewWBCache(d, r.rail))
	}
	if err := r.compose(true); err != nil {
		return nil, nil, err
	}
	return r.back, r.close, nil
}

// openWorkload opens the instance a workload runs on.
func (c Config) openWorkload(back disk.Backend, opts lld.Options) (*lld.LLD, error) {
	l, err := lld.Open(back, opts)
	if err == nil && c.Opened != nil {
		c.Opened(l)
	}
	return l, err
}

// tortureOptions is the small-geometry option set every run uses:
// shipped defaults otherwise. lld owns no goroutine and the workload is
// single-threaded, so every run of a given (seed, point) is
// bit-deterministic.
func tortureOptions(hook func(string)) lld.Options {
	o := lld.DefaultOptions()
	o.SegmentSize = 32 * 1024
	o.SummarySize = 4 * 1024
	o.MaxBlockSize = 4096
	o.CompressBandwidth = 0
	o.CrashHook = hook
	return o
}

// scheduler counts schedule-site occurrences and trips the rail when
// the target occurrence of the target site is reached.
type scheduler struct {
	mu     sync.Mutex
	counts map[string]int
	rail   *disk.PowerRail
	seed   int64
	target point
}

func newScheduler(rail *disk.PowerRail, seed int64, target point) *scheduler {
	return &scheduler{counts: make(map[string]int), rail: rail, seed: seed, target: target}
}

func (s *scheduler) hook(site string) {
	s.mu.Lock()
	s.counts[site]++
	c := int64(s.counts[site])
	s.mu.Unlock()
	if s.target.kind == ptSite && s.target.site == site && c == s.target.n {
		s.rail.PowerLoss(mixSeed(s.seed, 7000+c))
	}
}

func (s *scheduler) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// ckptWrite is where in the sector span a checkpoint's two writes began:
// its payload's and its pointer record's.
type ckptWrite struct{ payload, pointer int64 }

// runReference executes the workload with no crash and reports the
// sector span consumed after format, the schedule-site occurrence counts —
// the coordinate space the crash points are drawn from — and where in that
// span each checkpoint's writes began.
func runReference(cfg Config) (span int64, sites map[string]int, ckpts []ckptWrite, err error) {
	r, err := newRig(cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	defer r.close()
	sched := newScheduler(r.rail, cfg.Seed, point{})
	var base int64
	opts := tortureOptions(func(site string) {
		switch site {
		case "checkpoint":
			ckpts = append(ckpts, ckptWrite{payload: r.rail.Accepted() - base})
		case "checkpoint.payload":
			if n := len(ckpts); n > 0 {
				ckpts[n-1].pointer = r.rail.Accepted() - base
			}
		}
		sched.hook(site)
	})
	if err := lld.Format(r.back, opts); err != nil {
		return 0, nil, nil, fmt.Errorf("reference format: %w", err)
	}
	base = r.rail.Accepted()
	if r.mirror != nil {
		r.mirror.SetCrashHook(sched.hook)
	}
	l, err := cfg.openWorkload(r.back, opts)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reference open: %w", err)
	}
	w := newWorkload(l, r, cfg.Seed, point{})
	if err := w.run(cfg.Ops); err != nil {
		return 0, nil, nil, fmt.Errorf("reference workload: %w", err)
	}
	if r.rail.Lost() {
		return 0, nil, nil, fmt.Errorf("reference run lost power with no injection")
	}
	if err := l.Shutdown(false); err != nil {
		return 0, nil, nil, fmt.Errorf("reference shutdown: %w", err)
	}
	return r.rail.Accepted() - base, sched.snapshot(), ckpts, nil
}

// enumerate builds the ordered crash-point list for a config.
func enumerate(cfg Config) ([]point, error) {
	cfg.fillDefaults()
	var pts []point
	switch cfg.Kind {
	case KindReclaim:
		var err error
		pts, err = enumerateReclaim(cfg)
		if err != nil {
			return nil, err
		}
	case KindRebuild:
		var err error
		pts, err = enumerateRebuild(cfg)
		if err != nil {
			return nil, err
		}
	default:
		span, sites, ckpts, err := runReference(cfg)
		if err != nil {
			return nil, err
		}
		// Sector-granular points need a deterministic accepted-sector
		// order; the stripe's parallel leg workers race on the rail, so
		// stripes use (denser) op-granular points instead.
		if cfg.Kind != KindStripe {
			for s := cfg.SectorStride; s <= span; s += cfg.SectorStride {
				pts = append(pts, point{kind: ptSector, n: s})
			}
			// A checkpoint torn mid-write: its payload's first two sectors
			// accepted, the rest lost; and its pointer record's sector lost,
			// or accepted with nothing after it. Recovery must fall back to
			// the older pointer and the chain that one starts, or take the
			// new one whole.
			for i, c := range ckpts {
				if i == cfg.SiteCap {
					break
				}
				for _, at := range []int64{c.payload + 2, c.pointer, c.pointer + 1} {
					if at > 0 && at%cfg.SectorStride != 0 {
						pts = append(pts, point{kind: ptSector, n: at})
					}
				}
			}
		}
		for k := cfg.OpStride; k < cfg.Ops; k += cfg.OpStride {
			pts = append(pts, point{kind: ptOp, n: int64(k)})
		}
		pts = append(pts, sitePoints(cfg, sites)...)
	}
	if cfg.MaxPoints > 0 && len(pts) > cfg.MaxPoints {
		sampled := make([]point, 0, cfg.MaxPoints)
		for i := 0; i < cfg.MaxPoints; i++ {
			sampled = append(sampled, pts[i*len(pts)/cfg.MaxPoints])
		}
		pts = sampled
	}
	return pts, nil
}

// sitePoints expands observed site occurrence counts into points, in
// sorted site order for determinism.
func sitePoints(cfg Config, sites map[string]int) []point {
	names := make([]string, 0, len(sites))
	for s := range sites {
		names = append(names, s)
	}
	sort.Strings(names)
	var pts []point
	for _, s := range names {
		n := sites[s]
		if n > cfg.SiteCap {
			n = cfg.SiteCap
		}
		for j := 1; j <= n; j++ {
			pts = append(pts, point{kind: ptSite, n: int64(j), site: s})
		}
	}
	return pts
}

// runPoint executes one crash point end to end: build, crash, restart,
// recover, verify. A nil return means the recovered state was legal.
func runPoint(cfg Config, pt point) error {
	cfg.fillDefaults()
	switch cfg.Kind {
	case KindReclaim:
		return runReclaimPoint(cfg, pt)
	case KindRebuild:
		return runRebuildPoint(cfg, pt)
	}
	r, err := newRig(cfg)
	if err != nil {
		return err
	}
	defer r.close()
	sched := newScheduler(r.rail, cfg.Seed, pt)
	opts := tortureOptions(sched.hook)
	if err := lld.Format(r.back, opts); err != nil {
		return fmt.Errorf("format: %w", err)
	}
	if err := r.sync(); err != nil {
		return fmt.Errorf("post-format sync: %w", err)
	}
	if r.mirror != nil {
		r.mirror.SetCrashHook(sched.hook)
	}
	if pt.kind == ptSector {
		r.rail.Arm(pt.n, mixSeed(cfg.Seed, pt.n))
	}
	m := newModel()
	l, err := cfg.openWorkload(r.back, opts)
	if err != nil {
		if !r.rail.Lost() {
			return fmt.Errorf("open: %w", err)
		}
		// Power died during the initial open: recovery starts from an
		// empty (but formatted) store.
	} else {
		w := newWorkload(l, r, cfg.Seed, pt)
		if err := w.run(cfg.Ops); err != nil {
			return err
		}
		m = w.m
		if !r.rail.Lost() {
			// The workload outran the point (a sector budget larger than
			// this run consumed, which cannot happen for enumerated
			// points, or a site occurrence that never recurred): cut now.
			r.rail.PowerLoss(mixSeed(cfg.Seed, int64(cfg.Ops)+1))
		}
		_ = l.Shutdown(false)
	}
	return recoverAndVerify(cfg, r, m, nil)
}

// recoverAndVerify restarts the rig, reopens (running recovery), and
// checks the recovered state: shadow model, instance invariants, and —
// on an undegraded image — lld.Verify on a copy of it, cleanly shut down.
func recoverAndVerify(cfg Config, r *rig, m *model, base map[ld.BlockID]obs) error {
	r.rail.Restart()
	if err := r.compose(true); err != nil {
		return fmt.Errorf("recompose after restart: %w", err)
	}
	return verifyRecovered(cfg, r, m, base)
}

// verifyRecovered runs recovery on the already-recomposed rig and
// checks the result.
func verifyRecovered(cfg Config, r *rig, m *model, base map[ld.BlockID]obs) error {
	im, err := r.image()
	if err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	if cfg.OnImage != nil {
		if err := cfg.OnImage(im); err != nil {
			return fmt.Errorf("crash image hook: %w", err)
		}
	}
	if err := chainAgreesWithSweep(im); err != nil {
		return err
	}
	opts := tortureOptions(nil)
	l2, err := lld.Open(r.back, opts)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	if r.mirror != nil {
		if err := checkMirrorSummaries(r.mirror); err != nil {
			return err
		}
	}
	rep := l2.RecoveryReport()
	if err := m.verify(l2, rep); err != nil {
		return err
	}
	if base != nil {
		if err := checkBaseline(l2, base, m); err != nil {
			return err
		}
	}
	if err := l2.Shutdown(true); err != nil {
		return fmt.Errorf("clean shutdown after recovery: %w", err)
	}
	if !rep.Degraded() {
		// Verify writes what a mount writes: it gets a copy of the image.
		im, err := r.image()
		if err != nil {
			return fmt.Errorf("clean image: %w", err)
		}
		back, done, err := im.Mount()
		if err != nil {
			return fmt.Errorf("clean image: %w", err)
		}
		defer done()
		var detail strings.Builder
		faults, err := lld.Verify(back, &detail)
		if err != nil {
			return fmt.Errorf("offline verify: %w", err)
		}
		if faults > 0 {
			return fmt.Errorf("offline verify found %d faults on an undegraded image:\n%s",
				faults, detail.String())
		}
	}
	return nil
}

// chainAgreesWithSweep mounts two private copies of a crash image, one by
// the checkpoint's chain as Open does and one by the full sweep, and
// requires that they recover the same state.
func chainAgreesWithSweep(im Image) error {
	chain, doneChain, err := im.Mount()
	if err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	defer doneChain()
	full, doneFull, err := im.Mount()
	if err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	defer doneFull()
	return lld.CompareChainMount(chain, full, im.Options())
}

// checkMirrorSummaries holds a mount to DESIGN §11 row 5: every summary slot
// some live leg of the mirror can decode holds the same bytes on every live
// leg afterwards. Recovery adopts the newest copy of a slot and heals the
// others to it; a leg left holding an older generation would be served
// whenever the read rotation reaches it.
func checkMirrorSummaries(m *mdisk.Mirror) error {
	var live []disk.Backend
	for i := 0; i < m.Replicas(); i++ {
		if m.State(i) == mdisk.ReplicaLive {
			live = append(live, m.Child(i))
		}
	}
	for _, leg := range live {
		offs, size, err := lld.SummarySlots(leg)
		if err != nil {
			return fmt.Errorf("summary slots after recovery: %w", err)
		}
		want, got := make([]byte, size), make([]byte, size)
		for _, off := range offs {
			if err := live[0].ReadAt(want, off); err != nil {
				return fmt.Errorf("summary slot at byte %d: %w", off, err)
			}
			for i, other := range live[1:] {
				if err := other.ReadAt(got, off); err != nil {
					return fmt.Errorf("summary slot at byte %d: %w", off, err)
				}
				if !bytes.Equal(want, got) {
					return fmt.Errorf("summary slot at byte %d differs between live legs 0 and %d after recovery", off, i+1)
				}
			}
		}
	}
	return nil
}
