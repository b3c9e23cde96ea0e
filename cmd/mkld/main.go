// Command mkld creates a disk image file formatted with the log-structured
// Logical Disk layout (superblock, checkpoint region, segments), optionally
// with a MINIX LLD file system on top.
//
// With -mirror N or -stripe N the logical disk is formatted over a
// multi-disk backend (internal/mdisk) and the images are written as
// disk.img.0 … disk.img.N-1, one file per backing disk. -size remains
// the logical capacity: each mirror replica holds the full image, each
// stripe leg holds 1/N of it.
//
// Usage:
//
//	mkld -size 64M [-segment 512K] [-fs] disk.img
//	mkld -size 64M -mirror 2 disk.img     # writes disk.img.0, disk.img.1
//	mkld -size 64M -stripe 4 disk.img     # writes disk.img.0 … disk.img.3
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/imageset"
	"repro/internal/lld"
	"repro/internal/minixfs"
)

func main() {
	size := flag.String("size", "64M", "logical disk capacity (K/M/G suffixes)")
	segment := flag.String("segment", "512K", "LLD segment size")
	withFS := flag.Bool("fs", false, "also create a MINIX LLD file system (per-file lists)")
	mirrorN := flag.Int("mirror", 0, "mirror the logical disk over N replicas (images <image>.0 … <image>.N-1)")
	stripeN := flag.Int("stripe", 0, "stripe the logical disk over N legs (images <image>.0 … <image>.N-1)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mkld [-size N] [-segment N] [-fs] [-mirror N | -stripe N] <image>")
		os.Exit(2)
	}
	capacity, err := imageset.ParseSize(*size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkld: bad size: %v\n", err)
		os.Exit(2)
	}
	segSize, err := imageset.ParseSize(*segment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkld: bad segment size: %v\n", err)
		os.Exit(2)
	}

	set, err := imageset.New(capacity, *mirrorN, *stripeN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkld: %v\n", err)
		os.Exit(2)
	}
	d, kind := set.Backend, ""
	switch {
	case set.Mirror != nil:
		kind = fmt.Sprintf(", %d-way mirror", *mirrorN)
	case set.Stripe != nil:
		defer set.Stripe.Close()
		kind = fmt.Sprintf(", %d-leg stripe", *stripeN)
	}
	opts := lld.DefaultOptions()
	opts.SegmentSize = int(segSize)
	if err := lld.Format(d, opts); err != nil {
		fmt.Fprintf(os.Stderr, "mkld: format: %v\n", err)
		os.Exit(1)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkld: open: %v\n", err)
		os.Exit(1)
	}
	if *withFS {
		be, err := minixfs.FormatLD(l, 4096, minixfs.LDConfig{PerFileLists: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkld: fs backend: %v\n", err)
			os.Exit(1)
		}
		fs, err := minixfs.Mkfs(be, minixfs.Config{BlockSize: 4096})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkld: mkfs: %v\n", err)
			os.Exit(1)
		}
		if err := fs.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mkld: close fs: %v\n", err)
			os.Exit(1)
		}
	}
	if err := l.Shutdown(true); err != nil {
		fmt.Fprintf(os.Stderr, "mkld: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := set.Save(flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "mkld: save: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mkld: %s: %d MB, %d segments of %d KB%s%s\n",
		flag.Arg(0), d.Capacity()>>20, l.SegmentCount(), segSize>>10, kind,
		map[bool]string{true: ", MINIX LLD file system", false: ""}[*withFS])
}
