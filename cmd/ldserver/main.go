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
	"sync"
	"syscall"

	"repro/cmd/internal/imageset"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/netld/server"
)

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

	capacity, err := imageset.ParseSize(*size)
	if err != nil {
		fail("bad size: %v", err)
	}
	segSize, err := imageset.ParseSize(*segment)
	if err != nil {
		fail("bad segment size: %v", err)
	}

	opts := lld.DefaultOptions()
	opts.SegmentSize = int(segSize)

	// A set with some files present is served from them: a mirror starts
	// degraded when a replica's file is missing and rebuilds it online, a
	// stripe refuses to start without every leg. Otherwise the disks start
	// blank and are formatted.
	fresh := *img == "" || !imageset.Exists(*img, *mirrorN, *stripeN)
	var bk *imageset.Set
	if fresh {
		bk, err = imageset.New(capacity, *mirrorN, *stripeN)
	} else {
		bk, err = imageset.Load(*img, *mirrorN, *stripeN, true)
	}
	if err != nil {
		fail("%v", err)
	}
	if fresh {
		if err := lld.Format(bk.Backend, opts); err != nil {
			fail("format: %v", err)
		}
	}
	l, err := lld.Open(bk.Backend, opts)
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
		Reopen:      func() (ld.Disk, error) { return lld.Open(bk.Backend, opts) },
		Logf:        logf,
		IdleTimeout: *idleTimeout,
	})

	// Missing mirror replicas re-silver online while clients are served;
	// the bounded lock steps keep request pauses short.
	var rebuildWG sync.WaitGroup
	for _, idx := range bk.Blank {
		fmt.Fprintf(os.Stderr, "ldserver: replica %d's image %s.%d is missing: started degraded, rebuilding it online\n", idx, *img, idx)
		rebuildWG.Add(1)
		go func(idx int) {
			defer rebuildWG.Done()
			lastDecile := -1
			rep, err := bk.Mirror.Rebuild(idx, 0, func(done, total int) {
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
		describe(bk, *img), bk.Backend.Capacity()>>20, l.SegmentCount(), ln.Addr())

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
		if err := bk.Save(*img); err != nil {
			fail("save image: %v", err)
		}
		if len(bk.Disks) == 1 {
			fmt.Fprintf(os.Stderr, "ldserver: image saved to %s\n", *img)
		} else {
			fmt.Fprintf(os.Stderr, "ldserver: images saved to %s.0 … %s.%d\n", *img, *img, len(bk.Disks)-1)
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
		if bk.Mirror != nil || bk.Stripe != nil {
			fmt.Fprintf(os.Stderr,
				"ldserver: redundancy: %d degraded reads, %d copies self-healed, %d healed by scrub, %d segments reclaimed\n",
				s.DegradedReads, s.SelfHeals, s.ScrubHeals, s.ReclaimedSegments)
		}
	}
	if bk.Mirror != nil {
		ms := bk.Mirror.Stats()
		fmt.Fprintf(os.Stderr,
			"ldserver: mirror: %d reads (%d degraded), %d writes, %d copies healed, %d verify rejects, %d replica failures, %d rebuilds\n",
			ms.Reads, ms.DegradedReads, ms.Writes, ms.Heals, ms.VerifyRejects, ms.ReplicaFailures, ms.RebuildsDone)
	}
	if bk.Stripe != nil {
		ss := bk.Stripe.Stats()
		fmt.Fprintf(os.Stderr,
			"ldserver: stripe: %d reads + %d writes fanned into %d leg ops over %d legs (%d found a busy queue)\n",
			ss.Reads, ss.Writes, ss.LegOps, bk.Stripe.Backends(), ss.LegQueue)
		bk.Stripe.Close()
	}
	printStats(srv.Stats(), *quiet)
}

func describe(bk *imageset.Set, img string) string {
	suffix := ""
	switch {
	case bk.Mirror != nil:
		suffix = fmt.Sprintf(" (%d-way mirror)", len(bk.Disks))
	case bk.Stripe != nil:
		suffix = fmt.Sprintf(" (%d-leg stripe)", len(bk.Disks))
	}
	if img == "" {
		return "in-memory LLD" + suffix
	}
	return "LLD image " + img + suffix
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
