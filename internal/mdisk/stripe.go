package mdisk

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// Stripe interleaves logical sectors round-robin across its backends:
// logical sector s maps to backend s mod N, physical sector s div N.
// Every backend owns a buffered request queue drained by one worker
// goroutine, so the legs of a single request run in parallel and
// independent requests pipeline behind each other per backend without
// blocking the submitters.
//
// Stripe adds no redundancy: the first leg error fails the request.
type Stripe struct {
	kids     []disk.Backend
	queues   []chan *stripeReq
	wg       sync.WaitGroup
	ss       int
	perKid   int64 // physical sectors used on every backend
	capacity int64

	closed atomic.Bool
	stats  StripeStats
}

// StripeStats counts stripe-level events. Loaded atomically.
type StripeStats struct {
	Reads    int64 // logical read requests
	Writes   int64 // logical write requests (incl. NVRAM)
	LegOps   int64 // per-backend operations issued
	LegQueue int64 // operations that found their backend queue busy
}

const (
	opRead = iota
	opWrite
	opNVRAM
)

// stripeReq is one leg of a logical request, bound for one backend.
type stripeReq struct {
	op   int
	buf  []byte
	off  int64
	err  error
	done *sync.WaitGroup
}

// NewStripe builds a stripe over kids. All backends must share a sector
// size; the usable capacity is N times the smallest backend, so mixed
// sizes waste the excess of the larger ones.
func NewStripe(kids ...disk.Backend) (*Stripe, error) {
	ss, minCap, err := checkChildren(kids)
	if err != nil {
		return nil, err
	}
	perKid := minCap / int64(ss)
	s := &Stripe{
		kids:     kids,
		queues:   make([]chan *stripeReq, len(kids)),
		ss:       ss,
		perKid:   perKid,
		capacity: perKid * int64(ss) * int64(len(kids)),
	}
	for i := range kids {
		q := make(chan *stripeReq, 16)
		s.queues[i] = q
		s.wg.Add(1)
		go s.worker(kids[i], q)
	}
	return s, nil
}

// worker drains one backend's queue for the life of the stripe.
func (s *Stripe) worker(k disk.Backend, q chan *stripeReq) {
	defer s.wg.Done()
	for r := range q {
		switch r.op {
		case opRead:
			r.err = k.ReadAt(r.buf, r.off)
		case opWrite:
			r.err = k.WriteAt(r.buf, r.off)
		case opNVRAM:
			r.err = k.WriteAtNVRAM(r.buf, r.off)
		}
		r.done.Done()
	}
}

// Close stops the workers. The stripe must not be used afterwards; Close
// is idempotent.
func (s *Stripe) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
}

// io decomposes one logical request into per-backend legs, queues them,
// and waits for all of them. For reads the legs land in a scratch
// buffer and are scattered back into p sector by sector; for writes p
// is gathered into the scratch first. The scratch is one allocation per
// request, partitioned among the legs.
func (s *Stripe) io(op int, p []byte, off int64) error {
	if err := checkAccess(p, off, s.ss, s.capacity); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	n := len(s.kids)
	ss := int64(s.ss)
	s0 := off / ss
	count := int64(len(p)) / ss

	tmp := make([]byte, len(p))
	reqs := make([]stripeReq, n)
	var wg sync.WaitGroup
	used := 0
	tmpOff := int64(0)
	for k := 0; k < n; k++ {
		// First logical sector in [s0, s0+count) owned by backend k.
		first := s0 + (int64(k)-s0%int64(n)+int64(n))%int64(n)
		if first >= s0+count {
			continue
		}
		legSectors := (s0+count-1-first)/int64(n) + 1
		legBuf := tmp[tmpOff*ss : (tmpOff+legSectors)*ss]
		tmpOff += legSectors
		if op != opRead {
			for j := int64(0); j < legSectors; j++ {
				sec := first + j*int64(n)
				copy(legBuf[j*ss:(j+1)*ss], p[(sec-s0)*ss:(sec-s0+1)*ss])
			}
		}
		r := &reqs[k]
		*r = stripeReq{op: op, buf: legBuf, off: (first / int64(n)) * ss, done: &wg}
		wg.Add(1)
		atomic.AddInt64(&s.stats.LegOps, 1)
		select {
		case s.queues[k] <- r:
		default:
			atomic.AddInt64(&s.stats.LegQueue, 1)
			s.queues[k] <- r
		}
		used |= 1 << k
	}
	wg.Wait()
	var firstErr error
	for k := 0; k < n; k++ {
		if used&(1<<k) == 0 {
			continue
		}
		if err := reqs[k].err; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if op == opRead {
		tmpOff = 0
		for k := 0; k < n; k++ {
			if used&(1<<k) == 0 {
				continue
			}
			first := s0 + (int64(k)-s0%int64(n)+int64(n))%int64(n)
			legSectors := (s0+count-1-first)/int64(n) + 1
			legBuf := tmp[tmpOff*ss : (tmpOff+legSectors)*ss]
			tmpOff += legSectors
			for j := int64(0); j < legSectors; j++ {
				sec := first + j*int64(n)
				copy(p[(sec-s0)*ss:(sec-s0+1)*ss], legBuf[j*ss:(j+1)*ss])
			}
		}
	}
	return nil
}

// ReadAt implements disk.Backend.
func (s *Stripe) ReadAt(p []byte, off int64) error {
	atomic.AddInt64(&s.stats.Reads, 1)
	return s.io(opRead, p, off)
}

// WriteAt implements disk.Backend.
func (s *Stripe) WriteAt(p []byte, off int64) error {
	atomic.AddInt64(&s.stats.Writes, 1)
	return s.io(opWrite, p, off)
}

// WriteAtNVRAM implements disk.Backend.
func (s *Stripe) WriteAtNVRAM(p []byte, off int64) error {
	atomic.AddInt64(&s.stats.Writes, 1)
	return s.io(opNVRAM, p, off)
}

// Capacity implements disk.Backend.
func (s *Stripe) Capacity() int64 { return s.capacity }

// SectorSize implements disk.Backend.
func (s *Stripe) SectorSize() int { return s.ss }

// Now implements disk.Backend: the composite clock is the slowest leg,
// since the legs of a request complete in parallel.
func (s *Stripe) Now() time.Duration {
	var max time.Duration
	for _, k := range s.kids {
		if t := k.Now(); t > max {
			max = t
		}
	}
	return max
}

// AdvanceIdle implements disk.Backend: CPU time passes on every leg.
func (s *Stripe) AdvanceIdle(d time.Duration) {
	for _, k := range s.kids {
		k.AdvanceIdle(d)
	}
}

// ReadOrder implements disk.Backend: the identity order. A batch is spread
// over legs that each have an arm of their own; no stripe scheduling yet.
func (s *Stripe) ReadOrder(offs []int64, lens []int) []int { return disk.InOrder(len(offs)) }

// Sync implements disk.Syncer: every leg that offers a write barrier
// drains it. A stripe has no redundancy, so the first leg error fails
// the barrier — an acknowledged write may then still be volatile.
func (s *Stripe) Sync() error {
	for _, k := range s.kids {
		if sy, ok := k.(disk.Syncer); ok {
			if err := sy.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Backends reports the number of striped backends.
func (s *Stripe) Backends() int { return len(s.kids) }

// Child returns backing store i, for per-backend fault injection and
// image persistence.
func (s *Stripe) Child(i int) disk.Backend { return s.kids[i] }

// Stats returns a snapshot of the stripe counters.
func (s *Stripe) Stats() StripeStats {
	return StripeStats{
		Reads:    atomic.LoadInt64(&s.stats.Reads),
		Writes:   atomic.LoadInt64(&s.stats.Writes),
		LegOps:   atomic.LoadInt64(&s.stats.LegOps),
		LegQueue: atomic.LoadInt64(&s.stats.LegQueue),
	}
}

var _ disk.Backend = (*Stripe)(nil)
