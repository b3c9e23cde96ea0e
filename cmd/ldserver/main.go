// Command ldserver serves a Logical Disk over TCP using the netld
// protocol. The backing store is a log-structured LLD on the simulated
// disk, either fresh in memory or loaded from an image created with mkld;
// with -img the image is written back on clean shutdown.
//
// Usage:
//
//	ldserver -addr :7093                          # fresh 64M in-memory LLD
//	ldserver -addr :7093 -img disk.img            # serve an existing image
//	ldserver -addr :7093 -size 256M -segment 512K # fresh, custom geometry
//	ldserver -addr :7093 -mirror 2 -img disk.img  # serve disk.img.0, disk.img.1
//	ldserver -addr :7093 -stripe 4                # fresh LLD over a 4-leg stripe
//
// With -mirror N the backing store is an N-way mirror (internal/mdisk):
// reads are checksum-verified against any replica and silently healed,
// writes fan out to all. Image sets use mkld's <img>.0 … <img>.N-1
// naming. A replica image missing at startup starts the server degraded
// — the slot gets a blank disk and is re-silvered online while clients
// are being served, with progress logged. With -stripe N sectors are
// round-robined over N legs for parallel transfer.
//
// If a client disconnects with an atomic recovery unit open, the server
// aborts the unit by crash-style recovery (paper §3.3): the log is
// flushed, the in-memory state discarded, and the disk reopened; the
// one-sweep recovery drops the unfinished unit. Ctrl-C shuts down
// gracefully: in-flight requests drain, the LLD checkpoints, and the
// image (if any) is saved. SIGUSR1 scrubs the disk while it serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/mdisk"
	"repro/internal/netld/server"
)

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldserver: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":7093", "TCP listen address")
	img := flag.String("img", "", "disk image to serve (created if missing); saved on clean shutdown")
	size := flag.String("size", "64M", "capacity for a fresh disk (K/M/G suffixes)")
	segment := flag.String("segment", "512K", "LLD segment size for a fresh format")
	mirrorN := flag.Int("mirror", 0,
		"serve from an N-way mirror; with -img the replicas are <img>.0 … <img>.N-1")
	stripeN := flag.Int("stripe", 0,
		"serve from an N-leg stripe; with -img the legs are <img>.0 … <img>.N-1")
	idleTimeout := flag.Duration("idle-timeout", 0,
		"disconnect a client that sends no request for this long (0 = never); an ARU left open by an idled-out client is aborted")
	quiet := flag.Bool("q", false, "suppress per-event logging")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ldserver [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, `
Concurrency: each client connection is served by its own goroutine, and
read-only commands (READ, LISTBLOCKS, ...) execute concurrently inside the
backing LLD under a shared lock; mutating commands are exclusive. There is
no worker-pool knob for request handling — concurrency equals the number
of connected clients with in-flight requests.

SIGUSR1 runs one scrub pass on the disk being served — every sealed
segment re-read, every live block's payload checksum verified against the
media, requests waiting meanwhile — and logs what it found.

With -mirror, every sector lives on N replicas: writes fan out to all of
them, reads are served by any and re-checked against the LLD's per-block
checksums, so a replica that rots or dies is read around (and healed by
rewrite) without the client seeing an error. A replica image file that
is missing at startup is hot-attached blank and re-silvered online in
bounded chunk batches while the server runs. With -stripe, sectors
round-robin over N legs, each with its own request queue, for parallel
transfer. On shutdown each backing disk is saved to its own <img>.i.

On graceful shutdown (SIGINT/SIGTERM) the server drains in-flight
requests, checkpoints the LLD, and prints a per-opcode latency table
(count, errors, approximate p50/p99 from a log2 histogram).
`)
	}
	flag.Parse()

	capacity, err := parseSize(*size)
	if err != nil {
		fail("bad size: %v", err)
	}
	segSize, err := parseSize(*segment)
	if err != nil {
		fail("bad segment size: %v", err)
	}

	opts := lld.DefaultOptions()
	opts.SegmentSize = int(segSize)

	bk, err := setupBackend(*img, capacity, *mirrorN, *stripeN)
	if err != nil {
		fail("%v", err)
	}
	if bk.needFormat {
		if err := lld.Format(bk.be, opts); err != nil {
			fail("format: %v", err)
		}
	}
	l, err := lld.Open(bk.be, opts)
	if err != nil {
		fail("open LLD: %v", err)
	}
	rep := l.RecoveryReport()
	if rep.SweptSegments > 0 && !*quiet {
		fmt.Fprintf(os.Stderr,
			"ldserver: recovered after an unclean shutdown: read %d summaries (a chain of %d from checkpoint @%d%s) in %.2f s, verified %d blocks in %.2f s (virtual); %d segments / %d blocks at or below durable mark ts=%d not re-read\n",
			rep.SweptSegments, rep.ChainSegments, rep.CheckpointTS, fullSweep(rep.FullSweep), rep.SweepTime.Seconds(), rep.VerifiedBlocks, rep.VerifyTime.Seconds(),
			rep.VerifySkippedSegments, rep.VerifySkippedBlocks, rep.DurableMark)
	}
	if rep.Degraded() {
		fmt.Fprintf(os.Stderr,
			"ldserver: WARNING: recovery found damage: %d segments quarantined, %d blocks degraded\n",
			len(rep.QuarantinedSegments), len(rep.DegradedBlocks))
		for _, q := range rep.QuarantinedSegments {
			fmt.Fprintf(os.Stderr, "ldserver:   segment %d: %s\n", q.Seg, q.Reason)
		}
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	srv := server.New(server.Config{
		Disk:        l,
		Reopen:      func() (ld.Disk, error) { return lld.Open(bk.be, opts) },
		Logf:        logf,
		IdleTimeout: *idleTimeout,
	})

	// Missing mirror replicas re-silver online while clients are served;
	// the bounded lock steps keep request pauses short.
	var rebuildWG sync.WaitGroup
	for _, idx := range bk.rebuilding {
		rebuildWG.Add(1)
		go func(idx int) {
			defer rebuildWG.Done()
			lastDecile := -1
			rep, err := bk.mirror.Rebuild(idx, 0, func(done, total int) {
				if d := done * 10 / total; d != lastDecile {
					lastDecile = d
					logf("ldserver: rebuild replica %d: %d%% (%d/%d chunks)", idx, d*10, done, total)
				}
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "ldserver: rebuild replica %d FAILED: %v\n", idx, err)
				return
			}
			fmt.Fprintf(os.Stderr, "ldserver: rebuild replica %d complete: %d chunks (%d MB) copied in %d steps, %s virtual\n",
				idx, rep.Chunks, rep.Bytes>>20, rep.Steps, rep.Elapsed)
		}(idx)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "ldserver: serving %s (%d MB, %d segments) on %s\n",
		bk.describe(*img), bk.be.Capacity()>>20, l.SegmentCount(), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "ldserver: shutting down")
		srv.Close()
	}()
	// A live scrub, on demand: latent rot is found while the rest of the
	// log is healthy instead of at the next unlucky READ.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			if ll, ok := srv.Disk().(*lld.LLD); ok {
				res, err := ll.Scrub()
				fmt.Fprintf(os.Stderr,
					"ldserver: scrub: %d segments, %d blocks (%d KB) verified, %d corrupt %v, %d repaired %v, err=%v\n",
					res.Segments, res.Blocks, res.Bytes>>10, len(res.Corrupt), res.Corrupt, len(res.Repaired), res.Repaired, err)
			}
		}
	}()

	if err := srv.Serve(ln); err != nil {
		fail("serve: %v", err)
	}

	// Graceful exit: wait out any in-flight rebuild, checkpoint the LLD
	// (the instance may have been swapped by an ARU abort, so fetch the
	// current one) and save the image(s) if asked to.
	rebuildWG.Wait()
	cur := srv.Disk()
	if err := cur.Shutdown(true); err != nil {
		fail("clean shutdown: %v", err)
	}
	if *img != "" {
		if err := bk.save(*img); err != nil {
			fail("save image: %v", err)
		}
		if len(bk.kids) == 1 {
			fmt.Fprintf(os.Stderr, "ldserver: image saved to %s\n", *img)
		} else {
			fmt.Fprintf(os.Stderr, "ldserver: images saved to %s.0 … %s.%d\n", *img, *img, len(bk.kids)-1)
		}
	}
	if ll, ok := cur.(*lld.LLD); ok {
		s := ll.Stats()
		fmt.Fprintf(os.Stderr,
			"ldserver: cleaner: %d runs, %d segments cleaned, %d moved blocks, %d reads (%d MB)\n",
			s.CleanerRuns, s.SegmentsCleaned, s.BlocksMoved, s.CleanReads, s.CleanReadBytes>>20)
		fmt.Fprintf(os.Stderr,
			"ldserver: batched reads: %d batches, %d blocks, %d extents (%d MB), %d fallbacks, %d read-ahead windows, %d extents served from one\n",
			s.BatchReads, s.BatchReadBlocks, s.BatchExtents, s.BatchExtentBytes>>20, s.BatchFallbacks,
			s.ReadaheadWindows, s.ReadaheadHits)
		fmt.Fprintf(os.Stderr,
			"ldserver: integrity: %d corrupt reads refused, %d transient read retries, %d write retries, %d quarantined segments; scrub: %d passes, %d blocks (%d MB) verified, %d errors, %d repairs\n",
			s.CorruptReads, s.ReadRetries, s.WriteRetries, s.QuarantinedSegments,
			s.ScrubPasses, s.ScrubBlocks, s.ScrubBytes>>20,
			s.ScrubErrors, s.ScrubRepairs)
		if bk.mirror != nil || bk.stripe != nil {
			fmt.Fprintf(os.Stderr,
				"ldserver: redundancy: %d degraded reads, %d copies self-healed, %d healed by scrub, %d segments reclaimed\n",
				s.DegradedReads, s.SelfHeals, s.ScrubHeals, s.ReclaimedSegments)
		}
	}
	if bk.mirror != nil {
		ms := bk.mirror.Stats()
		fmt.Fprintf(os.Stderr,
			"ldserver: mirror: %d reads (%d degraded), %d writes, %d copies healed, %d verify rejects, %d replica failures, %d rebuilds\n",
			ms.Reads, ms.DegradedReads, ms.Writes, ms.Heals, ms.VerifyRejects, ms.ReplicaFailures, ms.RebuildsDone)
	}
	if bk.stripe != nil {
		ss := bk.stripe.Stats()
		fmt.Fprintf(os.Stderr,
			"ldserver: stripe: %d reads + %d writes fanned into %d leg ops over %d legs (%d found a busy queue)\n",
			ss.Reads, ss.Writes, ss.LegOps, bk.stripe.Backends(), ss.LegQueue)
		bk.stripe.Close()
	}
	printStats(srv.Stats(), *quiet)
}

// backendSet is the sector store ldserver serves from plus the handles
// needed for persistence, shutdown stats, and online rebuild.
type backendSet struct {
	be         disk.Backend
	kids       []*disk.Disk // the physical disks, for image save
	mirror     *mdisk.Mirror
	stripe     *mdisk.Stripe
	rebuilding []int // mirror slots that started blank and need a rebuild
	needFormat bool
}

// setupBackend builds the backing store: a single simulated disk, an
// N-way mirror, or an N-leg stripe, loading image files when they
// exist. Multi-disk sets use mkld's <img>.0 … <img>.N-1 naming. A
// mirror replica image missing at startup is replaced by a blank disk
// marked rebuilding (reported in rebuilding); a missing stripe leg is
// fatal, since its sectors exist nowhere else.
func setupBackend(img string, capacity int64, mirrorN, stripeN int) (*backendSet, error) {
	if mirrorN > 0 && stripeN > 0 {
		return nil, fmt.Errorf("-mirror and -stripe are mutually exclusive")
	}

	load := func(path string) (*disk.Disk, error) {
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		d := disk.New(disk.DefaultConfig(info.Size()))
		if err := d.LoadImage(path); err != nil {
			return nil, err
		}
		return d, nil
	}

	if mirrorN == 0 && stripeN == 0 {
		bk := &backendSet{needFormat: true}
		if img != "" {
			if _, err := os.Stat(img); err == nil {
				d, err := load(img)
				if err != nil {
					return nil, fmt.Errorf("load image: %w", err)
				}
				bk.kids, bk.be, bk.needFormat = []*disk.Disk{d}, d, false
				return bk, nil
			}
		}
		d := disk.New(disk.DefaultConfig(capacity))
		bk.kids, bk.be = []*disk.Disk{d}, d
		return bk, nil
	}

	n := mirrorN + stripeN // exactly one is nonzero
	kids := make([]*disk.Disk, n)
	var present []int
	if img != "" {
		for i := range kids {
			if _, err := os.Stat(fmt.Sprintf("%s.%d", img, i)); err == nil {
				present = append(present, i)
			}
		}
	}

	bk := &backendSet{kids: kids}
	switch {
	case stripeN > 0:
		if len(present) == 0 { // fresh: each leg carries 1/N of the capacity
			per := capacity / int64(n)
			for i := range kids {
				kids[i] = disk.New(disk.DefaultConfig(per))
			}
			bk.needFormat = true
		} else if len(present) < n {
			return nil, fmt.Errorf("stripe image set incomplete: %d of %d legs found (a stripe cannot run degraded)", len(present), n)
		} else {
			for i := range kids {
				d, err := load(fmt.Sprintf("%s.%d", img, i))
				if err != nil {
					return nil, fmt.Errorf("load leg %d: %w", i, err)
				}
				kids[i] = d
			}
		}
		s, err := mdisk.NewStripe(diskBackends(kids)...)
		if err != nil {
			return nil, err
		}
		bk.be, bk.stripe = s, s
		return bk, nil

	default: // mirrorN > 0
		if len(present) == 0 { // fresh: every replica carries the full capacity
			for i := range kids {
				kids[i] = disk.New(disk.DefaultConfig(capacity))
			}
			bk.needFormat = true
		} else {
			repCap := int64(0)
			for _, i := range present {
				d, err := load(fmt.Sprintf("%s.%d", img, i))
				if err != nil {
					return nil, fmt.Errorf("load replica %d: %w", i, err)
				}
				kids[i] = d
				if repCap == 0 {
					repCap = d.Capacity()
				}
			}
			for i := range kids {
				if kids[i] == nil {
					kids[i] = disk.New(disk.DefaultConfig(repCap))
					bk.rebuilding = append(bk.rebuilding, i)
				}
			}
		}
		m, err := mdisk.NewMirror(diskBackends(kids)...)
		if err != nil {
			return nil, err
		}
		if !bk.needFormat {
			// The image bytes never passed through this mirror's write
			// path, so the written bitmap is blank; a rebuild must copy
			// the whole capacity, not skip "unwritten" chunks.
			m.MarkAllWritten()
		}
		for _, i := range bk.rebuilding {
			m.FailReplica(i)
			if err := m.AttachBlank(i, kids[i]); err != nil {
				return nil, fmt.Errorf("attach blank replica %d: %w", i, err)
			}
		}
		bk.be, bk.mirror = m, m
		return bk, nil
	}
}

// save writes each backing disk to its image file.
func (bk *backendSet) save(img string) error {
	if len(bk.kids) == 1 && bk.mirror == nil && bk.stripe == nil {
		return bk.kids[0].SaveImage(img)
	}
	for i, k := range bk.kids {
		if err := k.SaveImage(fmt.Sprintf("%s.%d", img, i)); err != nil {
			return err
		}
	}
	return nil
}

func (bk *backendSet) describe(img string) string {
	suffix := ""
	switch {
	case bk.mirror != nil:
		suffix = fmt.Sprintf(" (%d-way mirror)", len(bk.kids))
	case bk.stripe != nil:
		suffix = fmt.Sprintf(" (%d-leg stripe)", len(bk.kids))
	}
	if img == "" {
		return "in-memory LLD" + suffix
	}
	return "LLD image " + img + suffix
}

func diskBackends(kids []*disk.Disk) []disk.Backend {
	out := make([]disk.Backend, len(kids))
	for i, k := range kids {
		out[i] = k
	}
	return out
}

// printStats renders the shutdown report: a one-line summary, the
// per-opcode latency table, and (unless quiet) the full JSON snapshot.
func printStats(st server.Stats, quiet bool) {
	var total, errs uint64
	names := make([]string, 0, len(st.Ops))
	for name, op := range st.Ops {
		if op.Count == 0 {
			continue
		}
		total += op.Count
		errs += op.Errors
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr,
		"ldserver: served %d requests (%d errors) over %d sessions; %d ARU aborts, %d proto errors\n",
		total, errs, st.SessionsOpened, st.ARUAborts, st.ProtoErrors)
	if len(names) > 0 {
		// A quantile landing in the histogram's overflow bucket is a floor,
		// not an exact bound; mark it "≥" rather than passing it off.
		q := func(op server.OpStats, p float64) string {
			d, over := op.QuantileBound(p)
			if over {
				return "≥" + d.String()
			}
			return d.String()
		}
		fmt.Fprintf(os.Stderr, "%-14s %10s %8s %10s %10s\n", "op", "count", "errors", "p50", "p99")
		for _, name := range names {
			op := st.Ops[name]
			fmt.Fprintf(os.Stderr, "%-14s %10d %8d %10s %10s\n",
				name, op.Count, op.Errors, q(op, 0.50), q(op, 0.99))
		}
	}
	if !quiet {
		js, _ := json.MarshalIndent(st, "", "  ")
		fmt.Fprintf(os.Stderr, "ldserver: final stats:\n%s\n", js)
	}
}

// fullSweep renders why a mount probed every summary, or nothing for a
// mount that followed the chain.
func fullSweep(reason string) string {
	if reason == "" {
		return ""
	}
	return "; full sweep: " + reason
}
