// Command lddump inspects an LLD-formatted disk image: superblock
// geometry, checkpoint slots, and segment summaries (the on-disk log of
// LLD's metadata). With -remote it inspects a live ldserver instead,
// walking the logical state (lists, blocks, sizes) through the netld
// protocol.
//
// After the dump it mounts its in-memory copy of the image (the file is
// never written) and reports what that mount did: whether it found a clean
// shutdown or ran recovery, how recovery's time split between the summary
// sweep and the read-back of mapped payloads, the I/O shape of the read-back
// and how much of the disk it left unread below the durable watermark — so
// "why did this mount take 25 s" has an answer.
//
// With -verify it mounts its copy instead, trusting nothing (lld.Verify): a
// clean-shutdown checkpoint is only the floor of a recovery sweep, so every
// summary is classified by recovery's own rules, and every mapped payload is
// read back against its checksum, below the durable watermark too. It prints
// each segment the mount quarantined and why, and exits nonzero if there is
// one.
//
// Multi-disk image sets written by mkld -mirror/-stripe (files named
// <image>.0 … <image>.N-1) are inspected with the same flags on lddump:
// the set is composed back into one logical backend first.
//
// Usage:
//
//	lddump [-v] disk.img
//	lddump -verify disk.img
//	lddump [-v|-verify] -mirror 2 disk.img      # reads disk.img.0, disk.img.1
//	lddump [-v|-verify] -stripe 4 disk.img      # reads disk.img.0 … disk.img.3
//	lddump [-v] -remote localhost:7093
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/imageset"
	"repro/internal/disk"
	"repro/internal/lld"
	"repro/internal/netld/client"
)

func main() {
	verbose := flag.Bool("v", false, "list every block entry and tuple (image) or every block (remote)")
	remote := flag.String("remote", "", "inspect a live netld server at this address instead of an image")
	verify := flag.Bool("verify", false, "mount the image trusting nothing instead of dumping; exit 1 if a segment is quarantined")
	mirrorN := flag.Int("mirror", 0, "compose the image from N mirror replicas <image>.0 … <image>.N-1")
	stripeN := flag.Int("stripe", 0, "compose the image from N stripe legs <image>.0 … <image>.N-1")
	flag.Parse()

	if *remote != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: lddump [-v] -remote <addr>")
			os.Exit(2)
		}
		if err := dumpRemote(os.Stdout, *remote, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "lddump: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lddump [-v|-verify] <image> | lddump [-v] -remote <addr>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	set, err := imageset.Load(path, *mirrorN, *stripeN, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lddump: %v\n", err)
		os.Exit(1)
	}
	d := set.Backend
	if *verify {
		faults, err := lld.Verify(d, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lddump: %v\n", err)
			os.Exit(1)
		}
		if faults > 0 {
			os.Exit(1)
		}
		return
	}
	if err := lld.Dump(d, os.Stdout, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "lddump: %v\n", err)
		os.Exit(1)
	}
	reportMount(d, os.Stdout)
}

// reportMount opens the loaded copy of the image and prints what the mount
// cost and found. A mount that fails is reported, not fatal: the dump
// above is what the caller came for.
func reportMount(d disk.Backend, w io.Writer) {
	began := d.Now()
	l, err := lld.Open(d, lld.DefaultOptions())
	if err != nil {
		fmt.Fprintf(w, "mount: fails: %v\n", err)
		return
	}
	took := d.Now() - began
	rep, st := l.RecoveryReport(), l.Stats()
	_ = l.Shutdown(false) // drops the instance; nothing is written
	if rep.SweptSegments == 0 {
		fmt.Fprintf(w, "mount: clean-shutdown checkpoint loaded in %.2f s (virtual); no sweep, no data verification\n", took.Seconds())
		return
	}
	fmt.Fprintf(w, "mount: recovery takes %.2f s (virtual): summary sweep of %d segments (%d with differing replica copies) %.2f s, data verification %.2f s\n",
		took.Seconds(), rep.SweptSegments, rep.DivergentSegments, rep.SweepTime.Seconds(), rep.VerifyTime.Seconds())
	if rep.FullSweep == "" {
		fmt.Fprintf(w, "mount: chain of %d segments from checkpoint @%d\n", rep.ChainSegments, rep.CheckpointTS)
	} else {
		fmt.Fprintf(w, "mount: full sweep: %s\n", rep.FullSweep)
	}
	fmt.Fprintf(w, "mount: verified %d blocks in %d extents spanning %d bytes; %d extents fell back to per-block reads\n",
		rep.VerifiedBlocks, rep.VerifyExtents, rep.VerifyBytes, rep.VerifyFallbacks)
	fmt.Fprintf(w, "mount: %d segments / %d blocks at or below durable mark ts=%d not re-read\n",
		rep.VerifySkippedSegments, rep.VerifySkippedBlocks, rep.DurableMark)
	fmt.Fprintf(w, "mount: %d segments quarantined, %d blocks degraded, %d torn slots cleared, %d records discarded, %d anomalies, %d read retries, %d copies healed\n",
		len(rep.QuarantinedSegments), len(rep.DegradedBlocks), rep.TornSlotsCleared, rep.DiscardedRecords,
		st.RecoveryAnomalies, st.ReadRetries, st.SelfHeals)
	for _, q := range rep.QuarantinedSegments {
		fmt.Fprintf(w, "mount:   segment %d: %s\n", q.Seg, q.Reason)
	}
}

// dumpRemote walks a live server's logical state through the LD
// interface: every list in list-of-lists order, its block count and
// total bytes, and (verbose) each block's id and stored size. Each list
// is fetched as one batched OpReadMulti sweep (two round trips) rather
// than one round trip per block, and a damaged block degrades to a
// per-entry note instead of aborting the walk.
func dumpRemote(w io.Writer, addr string, verbose bool) error {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	defer c.Close()

	fmt.Fprintf(w, "remote logical disk at %s\n", addr)
	fmt.Fprintf(w, "max block size: %d bytes\n", c.MaxBlockSize())
	lists, err := c.Lists()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lists: %d\n", len(lists))
	var totalBlocks, totalBytes, totalBad int64
	for _, lid := range lists {
		entries, err := c.ReadListBlocks(lid)
		if err != nil {
			return fmt.Errorf("list %d: %w", lid, err)
		}
		var bytes, bad int64
		for _, e := range entries {
			if e.Err != nil {
				bad++
				continue
			}
			bytes += int64(len(e.Data))
		}
		totalBlocks += int64(len(entries))
		totalBytes += bytes
		totalBad += bad
		fmt.Fprintf(w, "  L%-6d %6d blocks %10d bytes", lid, len(entries), bytes)
		if bad > 0 {
			fmt.Fprintf(w, "  (%d unreadable)", bad)
		}
		fmt.Fprintln(w)
		if verbose {
			for _, e := range entries {
				if e.Err != nil {
					fmt.Fprintf(w, "    B%-8d unreadable: %v\n", e.Block, e.Err)
					continue
				}
				fmt.Fprintf(w, "    B%-8d %8d bytes\n", e.Block, len(e.Data))
			}
		}
	}
	fmt.Fprintf(w, "total: %d blocks, %d bytes", totalBlocks, totalBytes)
	if totalBad > 0 {
		fmt.Fprintf(w, ", %d unreadable", totalBad)
	}
	fmt.Fprintln(w)
	return c.Shutdown(true)
}
