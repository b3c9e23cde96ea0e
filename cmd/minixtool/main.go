// Command minixtool operates on MINIX LLD disk images: list directories,
// import and export files, remove them, and show file system statistics.
//
// Usage:
//
//	minixtool disk.img ls /
//	minixtool disk.img put local.txt /remote.txt
//	minixtool disk.img cat /remote.txt
//	minixtool disk.img rm /remote.txt
//	minixtool disk.img mkdir /dir
//
// The image must have been created with `mkld -fs`. Changes are flushed
// through the Logical Disk and the image is rewritten in place.
package main

import (
	"fmt"
	"os"
	"sort"

	"repro/cmd/internal/imageset"
	"repro/internal/lld"
	"repro/internal/minixfs"
)

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "minixtool: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: minixtool <image> ls|cat|put|rm|mkdir|fsck|stat [args...]")
		os.Exit(2)
	}
	path, cmd := os.Args[1], os.Args[2]
	args := os.Args[3:]

	img, err := imageset.Load(path, 0, 0, false)
	if err != nil {
		fatal("%v", err)
	}
	l, err := lld.Open(img.Backend, lld.DefaultOptions())
	if err != nil {
		fatal("open LD: %v", err)
	}
	be, err := minixfs.OpenLD(l, 4096, minixfs.LDConfig{PerFileLists: true})
	if err != nil {
		fatal("open backend: %v", err)
	}
	fs, err := minixfs.Open(be, 0)
	if err != nil {
		fatal("open fs: %v", err)
	}

	dirty := false
	switch cmd {
	case "ls":
		dir := "/"
		if len(args) > 0 {
			dir = args[0]
		}
		infos, err := fs.ReadDir(dir)
		if err != nil {
			fatal("ls %s: %v", dir, err)
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		for _, fi := range infos {
			kind := "-"
			if fi.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %8d  ino %-5d %s\n", kind, fi.Size, fi.Inode, fi.Name)
		}
	case "cat":
		if len(args) != 1 {
			fatal("cat needs a path")
		}
		f, err := fs.Open(args[0])
		if err != nil {
			fatal("cat %s: %v", args[0], err)
		}
		buf := make([]byte, f.Size())
		if _, err := f.ReadAt(buf, 0); err != nil {
			fatal("read: %v", err)
		}
		if _, err := os.Stdout.Write(buf); err != nil {
			fatal("write: %v", err)
		}
		f.Close()
	case "put":
		if len(args) != 2 {
			fatal("put needs <local> <remote>")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			fatal("%v", err)
		}
		f, err := fs.Create(args[1])
		if err != nil {
			fatal("create %s: %v", args[1], err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			fatal("write: %v", err)
		}
		f.Close()
		dirty = true
	case "rm":
		if len(args) != 1 {
			fatal("rm needs a path")
		}
		if err := fs.Unlink(args[0]); err != nil {
			fatal("rm %s: %v", args[0], err)
		}
		dirty = true
	case "mkdir":
		if len(args) != 1 {
			fatal("mkdir needs a path")
		}
		if err := fs.Mkdir(args[0]); err != nil {
			fatal("mkdir %s: %v", args[0], err)
		}
		dirty = true
	case "fsck":
		problems, err := fs.Check()
		if err != nil {
			fatal("fsck: %v", err)
		}
		if len(problems) == 0 {
			fmt.Println("clean: no inconsistencies found")
		} else {
			for _, p := range problems {
				fmt.Println("problem:", p)
			}
			os.Exit(1)
		}
	case "stat":
		st := l.Stats()
		fmt.Printf("segments: %d total, %d free; live bytes %d\n",
			l.SegmentCount(), l.FreeSegments(), l.LiveBytes())
		fmt.Printf("lld: %d blocks written, %d sealed segments, %d partial writes, %d cleaned\n",
			st.BlocksWritten, st.SegmentsSealed, st.PartialWrites, st.SegmentsCleaned)
	default:
		fatal("unknown command %q", cmd)
	}

	if dirty {
		if err := fs.Close(); err != nil {
			fatal("close: %v", err)
		}
		if err := l.Shutdown(true); err != nil {
			fatal("shutdown: %v", err)
		}
		if err := img.Save(path); err != nil {
			fatal("save: %v", err)
		}
	}
}
