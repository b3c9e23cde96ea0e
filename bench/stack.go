package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/disk"
	"repro/internal/lld"
	"repro/internal/mdisk"
)

// stack is the part every workload shares: simulated platters, an
// optional mirror over them, and an lld opened on the shipped defaults.
// With a tracer the benchmark's wrappers sit at B5 (under lld) and B6 (on
// each mirror leg); without one the bare constructors are chained and no
// wrapper exists.
type stack struct {
	tr       *tracer
	opts     lld.Options
	platters []*disk.Disk
	mirror   *mdisk.Mirror
	backend  disk.Backend  // what lld was formatted on
	dev      *devStats     // B5 counters, nil untraced
	alloc    time.Duration // spent allocating the platters' memory
	l        *lld.LLD
}

// newStack formats and opens an lld over n platters of the given size:
// one platter directly, two or more as a mirror.
func newStack(tr *tracer, n int, platterBytes int64) (*stack, error) {
	s := &stack{tr: tr, opts: lld.DefaultOptions()}
	legs := make([]disk.Backend, n)
	for i := range legs {
		t0 := time.Now()
		d := disk.New(disk.DefaultConfig(platterBytes))
		// Touch every page (XOR with 0 writes the byte back unchanged):
		// a platter is up to 400 MB, whether the Go heap hands it out
		// from fresh or from recycled pages is luck, and a page fault
		// costs what the host pleases, once in a while seconds for one
		// platter. That is the simulator's cost, not the stack's, so it
		// is paid here and kept out of setup_s.
		for off := int64(0); off < d.Capacity(); off += 4096 {
			d.CorruptRange(off, 1, 0)
		}
		s.alloc += time.Since(t0)
		s.platters = append(s.platters, d)
		legs[i] = d
		if tr != nil && n > 1 {
			legs[i], _ = wrapBackend(tr, d, true, s.opts.SegmentSize, s.opts.SummarySize)
		}
	}
	s.backend = legs[0]
	if n > 1 {
		m, err := mdisk.NewMirror(legs...)
		if err != nil {
			return nil, err
		}
		s.mirror, s.backend = m, m
	}
	if tr != nil {
		s.backend, s.dev = wrapBackend(tr, s.backend, false, s.opts.SegmentSize, s.opts.SummarySize)
	}
	if err := lld.Format(s.backend, s.opts); err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	l, err := lld.Open(s.backend, s.opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	s.l = l
	return s, nil
}

// crash is the unclean shutdown: lld's in-memory state is dropped, the
// platters keep whatever reached them.
func (s *stack) crash() error { return s.l.Shutdown(false) }

// reopen runs lld's recovery on the same backend and returns its virtual
// and wall time.
func (s *stack) reopen() (virt, wall time.Duration, err error) {
	v0, t0 := s.backend.Now(), time.Now()
	l, err := lld.Open(s.backend, s.opts)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	s.l = l
	return s.backend.Now() - v0, time.Since(t0), nil
}

// powerCut runs lld's recovery on a copy of the platters as they are at
// this instant, which is what a power cut now would leave behind, and
// returns its virtual time on the copy's own clock. The running stack is
// not touched and does not notice.
func (s *stack) powerCut() (time.Duration, error) {
	legs := make([]disk.Backend, len(s.platters))
	for i, d := range s.platters {
		c := disk.New(d.Config())
		if err := c.Restore(d.Snapshot()); err != nil {
			return 0, err
		}
		legs[i] = c
	}
	backend := legs[0]
	if len(legs) > 1 {
		m, err := mdisk.NewMirror(legs...)
		if err != nil {
			return 0, err
		}
		backend = m
	}
	l, err := lld.Open(backend, s.opts)
	if err != nil {
		return 0, fmt.Errorf("open after power cut: %w", err)
	}
	virt := backend.Now() // the copy's clock started at 0
	return virt, l.Shutdown(false)
}

func (s *stack) platterBytes() int64 {
	var n int64
	for _, d := range s.platters {
		n += d.Capacity()
	}
	return n
}

// diskStats sums disk.Stats over the platters.
func (s *stack) diskStats() disk.Stats {
	var sum disk.Stats
	for _, d := range s.platters {
		sum = addInts(sum, d.Stats(), 1)
	}
	return sum
}

func (s *stack) bytesWritten() int64 {
	return s.diskStats().SectorsWritten * int64(s.backend.SectorSize())
}

// addInts returns a + sign*b over every integer field of a stats struct.
func addInts[T any](a, b T, sign int64) T {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if f := va.Field(i); f.CanInt() {
			f.SetInt(f.Int() + sign*vb.Field(i).Int())
		}
	}
	return a
}
