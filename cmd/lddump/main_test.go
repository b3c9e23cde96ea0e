package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/imageset"
	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/mdisk"
)

// The mount report of a crashed image says where recovery's time went and
// what the data read-back cost; that of a cleanly shut down one says there
// was nothing to do.
func TestReportMount(t *testing.T) {
	d := disk.New(disk.DefaultConfig(16 << 20))
	opts := lld.DefaultOptions()
	if err := lld.Format(d, opts); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	lid, err := l.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	// One segment's worth of blocks (124 x 4 KB fill a 512-KB segment's data
	// area), which the ninth-from-last write seals, and eight more that the
	// flush leaves in the open segment.
	prev := ld.NilBlock
	for i := 0; i < 124+8; i++ {
		b, err := l.NewBlock(lid, prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(b, bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	reportMount(d, &out)
	for _, want := range []string{"recovery takes", "summary sweep of", "verified 8 blocks in ",
		"chain of 3 segments from checkpoint @2", // the one Format wrote: the segment of its payload, which its writes stamp 2, and the two filled since
		"1 segments / 124 blocks at or below durable mark ts=", "0 segments quarantined"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("crashed image: report lacks %q:\n%s", want, out.String())
		}
	}

	l, err = lld.Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(true); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	reportMount(d, &out)
	if !strings.Contains(out.String(), "clean-shutdown checkpoint loaded") {
		t.Errorf("clean image: %s", out.String())
	}
}

// On a crashed mirror set the mount report counts the segments whose summary
// copies differed between the legs: none when the legs agree, one when a leg
// holds a rotted copy of one slot.
func TestReportMountCountsDifferingReplicaCopies(t *testing.T) {
	legs := []*disk.Disk{disk.New(disk.DefaultConfig(16 << 20)), disk.New(disk.DefaultConfig(16 << 20))}
	m, err := mdisk.NewMirror(legs[0], legs[1])
	if err != nil {
		t.Fatal(err)
	}
	opts := lld.DefaultOptions()
	if err := lld.Format(m, opts); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	lid, err := l.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := l.NewBlock(lid, ld.NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(b, bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}
	slots, _, err := lld.SummarySlots(legs[1])
	if err != nil || len(slots) == 0 {
		t.Fatalf("%d decodable summary slots, %v", len(slots), err)
	}
	images := [2][]byte{legs[0].Snapshot(), legs[1].Snapshot()}

	for _, c := range []struct {
		rot  bool
		want string
	}{{false, "(0 with differing replica copies)"}, {true, "(1 with differing replica copies)"}} {
		for i, img := range images {
			if err := legs[i].Restore(img); err != nil {
				t.Fatal(err)
			}
		}
		if c.rot {
			legs[1].CorruptRange(slots[0]+64, 8, 0xff)
		}
		var out strings.Builder
		reportMount(m, &out)
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("report lacks %q:\n%s", c.want, out.String())
		}
	}
}

// -verify mounts the copy of the image it loaded, which writes (the clean
// marker is demoted, replicas are compared): the files it read stay byte for
// byte as they were, on one disk and on a mirror set.
func TestVerifyLeavesImageFilesAlone(t *testing.T) {
	for _, mirrorN := range []int{0, 2} {
		path := filepath.Join(t.TempDir(), "v.img")
		var legs []*disk.Disk
		var kids []disk.Backend
		var files []string
		for i := 0; i < max(mirrorN, 1); i++ {
			legs = append(legs, disk.New(disk.DefaultConfig(16<<20)))
			kids = append(kids, legs[i])
			files = append(files, fmt.Sprintf("%s.%d", path, i))
		}
		d := kids[0]
		if mirrorN > 0 {
			m, err := mdisk.NewMirror(kids...)
			if err != nil {
				t.Fatal(err)
			}
			d = m
		} else {
			files[0] = path
		}
		opts := lld.DefaultOptions()
		if err := lld.Format(d, opts); err != nil {
			t.Fatal(err)
		}
		l, err := lld.Open(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			b, err := l.NewBlock(lid, ld.NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Write(b, bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Shutdown(true); err != nil {
			t.Fatal(err)
		}
		var before [][]byte
		for i, f := range files {
			if err := legs[i].SaveImage(f); err != nil {
				t.Fatal(err)
			}
			before = append(before, legs[i].Snapshot())
		}

		loaded, err := imageset.Load(path, mirrorN, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if faults, err := lld.Verify(loaded.Backend, &out); err != nil || faults != 0 {
			t.Fatalf("mirror %d: %d faults, %v:\n%s", mirrorN, faults, err, out.String())
		}
		for i, f := range files {
			after, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before[i], after) {
				t.Errorf("mirror %d: -verify changed %s", mirrorN, f)
			}
		}
	}
}
