package mdisk

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
)

// benchDisks builds n fresh backends for a benchmark.
func benchDisks(n int, capacity int64) []disk.Backend {
	kids := make([]disk.Backend, n)
	for i := range kids {
		kids[i] = disk.New(disk.DefaultConfig(capacity))
	}
	return kids
}

// TestSequentialShapeOnVirtualClock pins the two mechanical facts the
// benchmarks below print. A stripe's legs transfer in parallel, so a
// 4-leg sequential read is at least 1.5x as fast as one leg; a mirror's
// arms move together, so a 2-way sequential write takes at most 1.5x one
// replica's time. Only the virtual clock is read, so it is deterministic.
func TestSequentialShapeOnVirtualClock(t *testing.T) {
	const childCap, total = 4 << 20, 2 << 20
	// seq moves total bytes through b in 32-KB requests, front to back,
	// and returns the virtual time that took.
	seq := func(b disk.Backend, op func([]byte, int64) error) time.Duration {
		buf := make([]byte, 64*b.SectorSize())
		start := b.Now()
		for off := int64(0); off < total; off += int64(len(buf)) {
			if err := op(buf, off); err != nil {
				t.Fatal(err)
			}
		}
		return b.Now() - start
	}
	var read, write [2]time.Duration
	for i, n := range []int{1, 4} {
		s, err := NewStripe(benchDisks(n, childCap)...)
		if err != nil {
			t.Fatal(err)
		}
		seq(s, s.WriteAt)
		read[i] = seq(s, s.ReadAt)
		s.Close()
	}
	if 2*read[0] < 3*read[1] {
		t.Errorf("4-leg stripe read %v vs %v on one leg: under 1.5x", read[1], read[0])
	}
	for i, n := range []int{1, 2} {
		m, err := NewMirror(benchDisks(n, childCap)...)
		if err != nil {
			t.Fatal(err)
		}
		write[i] = seq(m, m.WriteAt)
	}
	if 2*write[1] > 3*write[0] {
		t.Errorf("2-way mirror write %v vs %v on one replica: fan-out not parallel", write[1], write[0])
	}
}

// BenchmarkStripeRead measures sequential read throughput over stripes
// of 1–8 legs. Wall time is goroutine scheduling noise here; the number
// that matters is the virtual-clock MB/s metric, which models the legs'
// platters transferring in parallel and should scale with the leg count.
func BenchmarkStripeRead(b *testing.B) {
	const childCap = 16 << 20
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			s, err := NewStripe(benchDisks(n, childCap)...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			chunk := int64(64 * s.SectorSize())
			buf := make([]byte, chunk)
			span := s.Capacity() / chunk * chunk
			for off := int64(0); off < span; off += chunk {
				if err := s.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(chunk)
			b.ResetTimer()
			start := s.Now()
			off := int64(0)
			for i := 0; i < b.N; i++ {
				if err := s.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
				off += chunk
				if off+chunk > span {
					off = 0
				}
			}
			virt := (s.Now() - start).Seconds()
			if virt > 0 {
				mb := float64(b.N) * float64(chunk) / (1 << 20)
				b.ReportMetric(mb/virt, "virtMB/s")
			}
		})
	}
}

// BenchmarkStripeWrite is the write-side counterpart.
func BenchmarkStripeWrite(b *testing.B) {
	const childCap = 16 << 20
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			s, err := NewStripe(benchDisks(n, childCap)...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			chunk := int64(64 * s.SectorSize())
			buf := make([]byte, chunk)
			span := s.Capacity() / chunk * chunk
			b.SetBytes(chunk)
			b.ResetTimer()
			start := s.Now()
			off := int64(0)
			for i := 0; i < b.N; i++ {
				if err := s.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
				off += chunk
				if off+chunk > span {
					off = 0
				}
			}
			virt := (s.Now() - start).Seconds()
			if virt > 0 {
				mb := float64(b.N) * float64(chunk) / (1 << 20)
				b.ReportMetric(mb/virt, "virtMB/s")
			}
		})
	}
}

// BenchmarkMirrorWrite measures the mirror's write fan-out cost across
// replica counts: media traffic multiplies by N but the virtual clock
// should barely move, because the replicas' arms travel together.
func BenchmarkMirrorWrite(b *testing.B) {
	const childCap = 16 << 20
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			m, err := NewMirror(benchDisks(n, childCap)...)
			if err != nil {
				b.Fatal(err)
			}
			chunk := int64(64 * m.SectorSize())
			buf := make([]byte, chunk)
			span := m.Capacity() / chunk * chunk
			b.SetBytes(chunk)
			b.ResetTimer()
			start := m.Now()
			off := int64(0)
			for i := 0; i < b.N; i++ {
				if err := m.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
				off += chunk
				if off+chunk > span {
					off = 0
				}
			}
			virt := (m.Now() - start).Seconds()
			if virt > 0 {
				mb := float64(b.N) * float64(chunk) / (1 << 20)
				b.ReportMetric(mb/virt, "virtMB/s")
			}
		})
	}
}
