package lld

import "sync"

// Read-ahead on LD (DESIGN.md §5). Files created together lie back to back
// in the log, but a file system that reads them one at a time asks for them
// one batch at a time, and each batch would cost a request of its own. The
// multi-block reader (readStoredBatch) keeps one window per instance: an
// extent that starts on the very sector where the previous batch extent
// ended — a stream that continues along the platter — is read together with
// what follows it, up to readaheadWindow bytes, in one request, and later
// extents that lie wholly inside those bytes cost no request at all. Every
// block served from the window is still checked against its checksum, and
// one that fails takes the per-block read like a bad block out of any
// extent. The single-block Read neither fills the window nor consults it.
// The trigger is forward-only: a population laid out backwards, each extent
// ending where the next one read begins, never fills a window, which is why
// NewBlock hands out the lowest free number (ld.IDPool).

// readaheadWindow is how far a continuing extent is read: 128 KB, four tracks
// of the modelled drive and minixfs's ldWindow, clipped to the segment's data
// area. Table 4's shipped MINIX-LLD row (ldbench -scale 1), files/s read, by
// window size:
//
//	window   R(1K)  R(10K)
//	none       418     130
//	16 KB      915      66
//	32 KB      961     119
//	64 KB    1,114     154
//	128 KB   1,294     178
//	256 KB   1,174     196
//
// A file that straddles the window's end is read again from its start, on
// sectors the head has just passed, and waits most of a revolution, which
// the drive's read buffer spares a request that starts exactly where the
// last one ended. At 16 and 32 KB that is every 10-KB file or every third,
// and R(10K) falls below no window at all. Past 128 KB the 1-KB files lose
// again:
// a window the stream leaves early has transferred more bytes nobody reads
// (R(1K) read 31,075 sectors at 256 KB, 25,323 at 128 KB), while the 10-KB
// files gain 10 % for twice the memory.
const readaheadWindow = 128 << 10

// readahead is the instance's one read-ahead window and the place the
// previous batch extent ended. Its mutex nests inside l.mu like cursorMu and
// is never held across I/O: a fill takes the buffer out, reads into it with
// the window empty, and puts it back. Only openNewSegment can change a
// sealed segment's bytes, and it runs under the exclusive lock, so no fill
// is in flight when it drops the window.
type readahead struct {
	mu sync.Mutex
	// The previous batch extent ended at byte end of segment endSeg; end 0
	// says there was none.
	endSeg int32
	end    uint32
	// The window holds bytes [lo, lo+n) of segment seg's data area in buf;
	// n 0 says there is none. buf is allocated at the first fill.
	seg   int32
	lo, n uint32
	buf   []byte
}

// next places the sweep's extent [lo, hi) of segment seg against the
// window and makes it the extent the next one is measured against. hit
// says the window holds the extent and its bytes are now in dst; fill says
// it continues the previous extent and may be read with what follows it.
func (r *readahead) next(seg int32, lo, hi uint32, dst []byte) (hit, fill bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n > 0 && seg == r.seg && lo >= r.lo && hi <= r.lo+r.n {
		copy(dst, r.buf[lo-r.lo:hi-r.lo])
		hit = true
	} else {
		fill = lo > 0 && seg == r.endSeg && lo == r.end && hi-lo <= readaheadWindow
	}
	r.endSeg, r.end = seg, hi
	return hit, fill
}

// take empties the window and hands its buffer to a fill.
func (r *readahead) take() []byte {
	r.mu.Lock()
	buf := r.buf
	r.buf, r.n = nil, 0
	r.mu.Unlock()
	if buf == nil {
		buf = make([]byte, readaheadWindow)
	}
	return buf
}

// put gives the buffer back, holding bytes [lo, lo+n) of segment seg; n 0
// says the fill failed and leaves no window.
func (r *readahead) put(buf []byte, seg int32, lo, n uint32) {
	r.mu.Lock()
	r.buf, r.seg, r.lo, r.n = buf, seg, lo, n
	r.mu.Unlock()
}

// drop forgets the window if it holds bytes of segment seg.
func (r *readahead) drop(seg int) {
	r.mu.Lock()
	if r.seg == int32(seg) {
		r.n = 0
	}
	r.mu.Unlock()
}

// fillWindow reads the window from the start of the extent [lo, hi) of
// segment seg on, one request, and copies the extent's bytes into dst. It
// reports whether the read succeeded; when it did not there is no window.
// The caller holds l.mu, shared or exclusive.
func (l *LLD) fillWindow(seg int32, lo, hi uint32, dst []byte) bool {
	end := min(lo+readaheadWindow, uint32(l.lay.dataCap()))
	buf := l.ra.take()
	if l.dskRead(buf[:end-lo], l.lay.segOff(int(seg))+int64(lo)) != nil {
		l.ra.put(buf, seg, lo, 0)
		return false
	}
	copy(dst, buf[:hi-lo])
	l.ra.put(buf, seg, lo, end-lo)
	return true
}
