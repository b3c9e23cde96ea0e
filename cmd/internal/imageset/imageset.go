// Package imageset loads and saves the disk images the commands work on:
// one file <img> holding one simulated disk, or a set <img>.0 … <img>.N-1
// that composes into an N-way mirror or an N-leg stripe (internal/mdisk).
// Each command keeps its own policy for a set with files missing.
package imageset

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/disk"
	"repro/internal/mdisk"
)

// ParseSize parses a byte count with an optional K, M or G suffix.
func ParseSize(s string) (int64, error) {
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

// Set is one backend made of the disks of an image or image set.
type Set struct {
	Backend disk.Backend // what lld runs on
	Disks   []*disk.Disk // the physical disks, one per file
	Mirror  *mdisk.Mirror
	Stripe  *mdisk.Stripe
	Blank   []int // mirror replicas whose files were missing: attached blank, to be rebuilt
}

// legs returns how many files a set of the given shape has: 0 for a single
// image.
func legs(mirrorN, stripeN int) (int, error) {
	if mirrorN > 0 && stripeN > 0 {
		return 0, errors.New("-mirror and -stripe are mutually exclusive")
	}
	return mirrorN + stripeN, nil
}

func path(img string, i, n int) string {
	if n == 0 {
		return img
	}
	return fmt.Sprintf("%s.%d", img, i)
}

// Exists reports whether any file of the set at img exists.
func Exists(img string, mirrorN, stripeN int) bool {
	n, err := legs(mirrorN, stripeN)
	for i := 0; err == nil && i < max(n, 1); i++ {
		if _, e := os.Stat(path(img, i, n)); e == nil {
			return true
		}
	}
	return false
}

// New returns blank disks of the given logical capacity: one disk, an
// N-way mirror whose replicas each hold it all, or an N-leg stripe whose
// legs each hold 1/N of it.
func New(capacity int64, mirrorN, stripeN int) (*Set, error) {
	n, err := legs(mirrorN, stripeN)
	if err != nil {
		return nil, err
	}
	if stripeN > 0 {
		capacity /= int64(n)
	}
	s := &Set{Disks: make([]*disk.Disk, max(n, 1))}
	for i := range s.Disks {
		s.Disks[i] = disk.New(disk.DefaultConfig(capacity))
	}
	return s, s.compose(mirrorN, stripeN)
}

// Load reads the files of the set at img. A missing file is an error,
// except that with degraded a mirror replica's is not while another
// replica's file exists: the replica is attached blank, the same size, and
// named in Blank for an online rebuild. A stripe has no degraded mode, since
// a missing leg's sectors exist nowhere else.
func Load(img string, mirrorN, stripeN int, degraded bool) (*Set, error) {
	n, err := legs(mirrorN, stripeN)
	if err != nil {
		return nil, err
	}
	s := &Set{Disks: make([]*disk.Disk, max(n, 1))}
	var missing []int
	var size int64
	for i := range s.Disks {
		info, err := os.Stat(path(img, i, n))
		switch {
		case err != nil && degraded && mirrorN > 0:
			missing = append(missing, i)
			continue
		case err != nil && degraded && stripeN > 0:
			return nil, fmt.Errorf("stripe image set incomplete: %v (a stripe cannot run degraded)", err)
		case err != nil:
			return nil, err
		}
		d := disk.New(disk.DefaultConfig(info.Size()))
		if err := d.LoadImage(path(img, i, n)); err != nil {
			return nil, err
		}
		s.Disks[i] = d
		if size == 0 {
			size = d.Capacity()
		}
	}
	if len(missing) == n && n > 0 {
		return nil, fmt.Errorf("no file of %s.0 … %s.%d found", img, img, n-1)
	}
	for _, i := range missing {
		s.Disks[i] = disk.New(disk.DefaultConfig(size))
	}
	if err := s.compose(mirrorN, stripeN); err != nil {
		return nil, err
	}
	if s.Mirror != nil {
		// The image bytes never passed through this mirror's write path, so
		// its written bitmap is blank; a rebuild must copy the whole
		// capacity, not skip "unwritten" chunks.
		s.Mirror.MarkAllWritten()
	}
	for _, i := range missing {
		s.Mirror.FailReplica(i)
		if err := s.Mirror.AttachBlank(i, s.Disks[i]); err != nil {
			return nil, fmt.Errorf("attach blank replica %d: %w", i, err)
		}
	}
	s.Blank = missing
	return s, nil
}

// compose builds the backend over s.Disks: the one disk, a mirror, or a
// stripe.
func (s *Set) compose(mirrorN, stripeN int) (err error) {
	kids := make([]disk.Backend, len(s.Disks))
	for i, d := range s.Disks {
		kids[i] = d
	}
	switch {
	case mirrorN > 0:
		s.Mirror, err = mdisk.NewMirror(kids...)
		s.Backend = s.Mirror
	case stripeN > 0:
		s.Stripe, err = mdisk.NewStripe(kids...)
		s.Backend = s.Stripe
	default:
		s.Backend = s.Disks[0]
	}
	return err
}

// Save writes each disk to its file.
func (s *Set) Save(img string) error {
	n := len(s.Disks)
	if s.Mirror == nil && s.Stripe == nil {
		n = 0
	}
	for i, d := range s.Disks {
		if err := d.SaveImage(path(img, i, n)); err != nil {
			return err
		}
	}
	return nil
}
