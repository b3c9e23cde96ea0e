package lld

import "sync"

// Read-ahead on LD (DESIGN.md §5). Files created together lie back to back
// in the log, but a file system that reads them one at a time asks for them
// one batch at a time, and each batch would cost a request of its own. The
// instance keeps one window for the foreground reader: ReadBlocks claims it
// and hands it to the multi-block reader (readStoredBatch), which follows
// the log the way a reader walks it, in platter order. The cleaner and
// Reorganize read without it, so a pass neither resets a reader's stream
// nor fills a window:
//
//   - Confirmation. Only a stream reads ahead: an extent may start a window
//     only if the extent before it continued the one before that. A lone
//     block that happens to continue the last extent reads itself alone.
//   - Continuation. An extent that starts on the very sector where the
//     previous one ended is read together with what follows it, up to
//     readaheadWindow bytes, in one request; later extents that lie wholly
//     inside those bytes cost no request at all.
//   - Slide. An extent that ends past the window's end, within one window of
//     where the stream stands inside it — the file that straddles the end,
//     or the i-node block written after its files — keeps the window's
//     unread bytes and reads only from the window's end on, so no sector
//     the head has just passed is read again. An extent that runs past the
//     window's end and cannot slide it (a batch's larger extent) also
//     reads only what the window does not hold.
//   - Clip. A window ends at its segment's last live byte (liveEnd), not at
//     the data area's end: the unused tail of a segment sealed with its
//     summary full is never transferred.
//   - Crossing. An extent at offset 0 of the physically next segment
//     continues a stream that ended at the last live byte of the one before,
//     so a stream costs no lone request at each segment's start.
//
// The walk only plans: a window it plans is one more request in the batch's
// schedule (Backend.ReadOrder), issued beside the batch's other extents in
// the order the backend serves them soonest, and the extents it serves are
// settled once it has been read. Every block served from a window is still
// checked against its checksum, and one that fails takes the per-block read
// like a bad block out of any extent. A window never spans two segments,
// and openNewSegment drops one over the segment it opens. The single-block
// Read neither fills the window nor consults it. The trigger is
// forward-only: a population laid out backwards, each extent ending where
// the next one read begins, never fills a window, which is why NewBlock
// hands out the lowest free number (ld.IDPool).

// readaheadWindow is the most a window holds: 256 KB, eight tracks of the
// modelled drive, and never more than a segment's live bytes. With the
// window following the log as above, Table 4's shipped MINIX-LLD row
// (ldbench -scale 1, files/s read) and `bench/run.sh --workload fs-small
// --seed 1 --seconds 15 --trace 0` (virtual clock) by window size:
//
//	window   R(1K)  R(10K)  virt_read_kb_s  heap_mb
//	64 KB    1,213     162         1,323.0     2.76
//	128 KB   1,554     190         1,597.9     2.82
//	192 KB   1,700     198         1,692.5     2.89
//	256 KB   1,743     206         1,752.3     2.96
//	384 KB   1,817     207         1,779.5     3.07
//
// Before clip and slide the best size was 128 KB (R(1K) 1,294, R(10K) 179;
// 1,174 / 196 at 256 KB): a window the stream left early had transferred
// bytes nobody read, and a file straddling its end was read again from its
// start, most of a revolution late. Now a window only runs ahead of the
// stream and stops at the segment's live end, so a larger one costs its
// memory and little else; past 256 KB the step buys 1.5 % on fs-small for
// another 128 KB held at rest.
const readaheadWindow = 256 << 10

// readahead is the instance's one read-ahead window and where the stream of
// ReadBlocks extents stands. A batch claims both for its whole run and
// gives them back when it is done; a batch that runs while another holds
// them reads without read-ahead and leaves them as they are. The mutex nests
// inside l.mu like cursorMu and guards only the claim, never I/O. Only
// openNewSegment can change a sealed segment's bytes, and it runs under the
// exclusive lock, so no batch holds the window when it drops it.
type readahead struct {
	mu      sync.Mutex
	claimed bool
	raState
}

// raState is the window and the stream as one batch sees them.
type raState struct {
	// The previous batch extent ended at byte end of segment endSeg; end 0
	// says there was none. confirmed says it continued the one before it.
	endSeg    int32
	end       uint32
	confirmed bool
	// The window holds bytes [lo, lo+n) of segment seg's data area in buf;
	// n 0 says there is none. buf is allocated at the first fill. Once a
	// batch has planned a fill, the window is its last one, not yet read.
	seg   int32
	lo, n uint32
	buf   []byte
}

// raFill is one window a batch plans for the extent that starts at span by
// of its sweep: bytes [lo, end) of segment seg into buf. Its request reads
// [from, end); a slide has put the bytes [lo, from) it keeps in buf already.
type raFill struct {
	by            int
	seg           int32
	lo, from, end uint32
	buf           []byte
	ok            bool
}

// claim hands a batch the window and the stream; false says another batch
// holds them.
func (r *readahead) claim() (raState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claimed {
		return raState{}, false
	}
	r.claimed = true
	return r.raState, true
}

// release gives them back as the batch left them.
func (r *readahead) release(st raState) {
	r.mu.Lock()
	r.raState, r.claimed = st, false
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

// Where an extent's bytes come from, as place plans it.
const (
	fromWindow = -2 // the window holds them now
	fromExtent = -1 // a request of the extent's own
	// >= 0: the batch's fill of that index reads them
)

// place plans the sweep's extent e against the window and the stream: it
// sets e.from to fromWindow, fromExtent or the index of the fill that reads
// e, appending any window it plans to *fills, and makes e the extent the
// next one is measured against. An extent that runs past the window's end
// and does not slide it keeps what the window holds of it in e.kept, and
// its own request reads only the rest. The caller holds l.mu, shared or
// exclusive, and has claimed st.
func (l *LLD) place(st *raState, fills *[]raFill, e *batchExtent) {
	seg, lo, hi := e.seg, e.lo, e.hi
	pending := len(*fills) - 1 // the fill that is to read the window; -1: its bytes are in buf
	cont := st.end > 0 && (seg == st.endSeg && lo == st.end ||
		seg == st.endSeg+1 && lo == 0 && st.end == l.liveEnd(st.endSeg))
	winEnd := st.lo + st.n
	inWin := st.n > 0 && seg == st.seg && lo >= st.lo // starts in the window or past it
	e.from = fromExtent
	switch {
	case inWin && hi <= winEnd:
		e.from = fromWindow
		if pending >= 0 {
			e.from = pending
		}
	case inWin && pending < 0 && st.confirmed && seg == st.endSeg && st.end >= st.lo && st.end <= winEnd &&
		lo >= st.end && hi-st.end <= readaheadWindow:
		// Slide: keep [st.end, winEnd), read from winEnd on.
		copy(st.buf, st.buf[st.end-st.lo:st.n])
		e.from = st.plan(fills, raFill{by: e.k, seg: seg, lo: st.end, from: winEnd, end: l.windowEnd(seg, st.end, hi), buf: st.buf})
	case inWin && pending < 0 && lo < winEnd:
		e.kept = append([]byte(nil), st.buf[lo-st.lo:st.n]...)
	case st.confirmed && cont && hi-lo <= readaheadWindow:
		e.from = st.plan(fills, raFill{by: e.k, seg: seg, lo: lo, from: lo, end: l.windowEnd(seg, lo, hi)})
	}
	st.confirmed = cont
	st.endSeg, st.end = seg, hi
}

// plan appends fill f, makes it the window and returns its index. The
// window's buffer goes to the batch's first fill (a slide's holds it
// already); any later one gets a buffer of its own.
func (st *raState) plan(fills *[]raFill, f raFill) int {
	if f.buf == nil {
		if len(*fills) == 0 && st.buf != nil {
			f.buf = st.buf
		} else {
			f.buf = make([]byte, readaheadWindow)
		}
	}
	*fills = append(*fills, f)
	st.seg, st.lo, st.n, st.buf = f.seg, f.lo, f.end-f.lo, f.buf
	return len(*fills) - 1
}

// windowEnd is where a window over segment seg that starts at lo ends:
// readaheadWindow on, clipped to the segment's last live byte, and never
// short of the extent [., hi) it is read for.
func (l *LLD) windowEnd(seg int32, lo, hi uint32) uint32 {
	return max(min(lo+readaheadWindow, l.liveEnd(seg)), hi)
}

// liveEnd is the sector after segment seg's last live byte: the end of the
// last block the map still places there, found from what its summary names.
// It is the data area's end when those names are not in memory or do not
// account for every block there (liveIn). Only a window's fill and a
// crossing ask for it, never a batch as such. The caller holds l.mu.
func (l *LLD) liveEnd(seg int32) uint32 {
	s := &l.segs[seg]
	var end uint32
	var found int32
	for _, b := range s.names {
		if int(b) >= len(l.blocks) {
			continue
		}
		if bi := &l.blocks[b]; bi.allocated() && bi.hasData() && l.segOf(bi) == int(seg) {
			found++
			end = max(end, l.offOf(bi)+uint32(bi.stored))
		}
	}
	if s.names == nil || found != s.mapped {
		return uint32(l.lay.dataCap())
	}
	ss := uint32(l.lay.sectorSize)
	return (end + ss - 1) / ss * ss
}
