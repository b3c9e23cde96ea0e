package main

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/ld"
	"repro/internal/minixfs"
	"repro/internal/vfs"
)

const (
	fsPartition = 400 << 20   // the paper's 400-MB partition
	fsCache     = 6144 * 1024 // and its static buffer cache
	fsInodes    = 16384       // covers the 10,000-file phase, as harness does
	largeBytes  = 80 << 20    // Table 5's file
	chunkSize   = 8192        // and its I/O unit
	nChunks     = largeBytes / chunkSize
)

// fsStack is MINIX on lld as harness.BuildMinixLLD configures it for
// Tables 4 and 5 — per-file lists, Cluster hint, 4-KB blocks, AtomicOps
// off — built here from the bare constructors so that a traced run can
// put its ld.Disk wrapper (B2) between minixfs.LDBackend and lld.
type fsStack struct {
	fs    *minixfs.FS
	snaps [2]minixfs.Stats
}

func (f *fsStack) ldConfig(e *env) minixfs.LDConfig {
	return minixfs.LDConfig{
		PerFileLists: true,
		Hints:        ld.ListHints{Cluster: true},
		Now:          func() uint32 { return uint32(e.st.backend.Now().Seconds()) },
	}
}

func (f *fsStack) top(e *env) ld.Disk {
	if e.tr != nil {
		return &tracedLD{Disk: e.st.l, tr: e.tr}
	}
	return e.st.l
}

func (f *fsStack) build(e *env) error {
	st, err := newStack(e.tr, 1, fsPartition)
	if err != nil {
		return err
	}
	e.st = st
	e.addClients(1)
	be, err := minixfs.FormatLD(f.top(e), blockSize, f.ldConfig(e))
	if err != nil {
		return err
	}
	f.fs, err = minixfs.Mkfs(be, minixfs.Config{BlockSize: blockSize, NInodes: fsInodes, CacheBytes: fsCache})
	return err
}

func (f *fsStack) crash(e *env) error { return e.st.crash() }

func (f *fsStack) discard(e *env) { e.st.crash() }

func (f *fsStack) recover(e *env) error {
	if err := e.reopen(); err != nil {
		return err
	}
	be, err := minixfs.OpenLD(f.top(e), blockSize, f.ldConfig(e))
	if err != nil {
		return err
	}
	f.fs, err = minixfs.Open(be, fsCache)
	return err
}

func (f *fsStack) snap(e *env, i int) { f.snaps[i] = f.fs.Stats() }

// fsck counts the file system's own consistency check as one check.
func (f *fsStack) fsck(c *client) {
	problems, err := f.fs.Check()
	if err != nil || len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "bench: fsck after recovery: %v %v\n", err, problems)
	}
	c.check(err == nil && len(problems) == 0)
}

func (f *fsStack) layers(e *env, tt *totals, ops float64, m map[string]float64) {
	top := tt.sum(spFsCreate, spFsRead, spFsWrite, spFsUnlink, spFsSync)
	m["minixfs.self_us_op"] = ratio(float64(top.self)/1e3, ops)
	m["minixfs.ld_reads_op"] = ratio(float64(tt.fg[spLLDRead].count+tt.fg[spLLDReadBlocks].count), ops)
	m["minixfs.ld_writes_op"] = ratio(float64(tt.fg[spLLDWrite].count), ops)
	m["minixfs.ld_allocs_op"] = ratio(float64(tt.fg[spLLDAlloc].count), ops)
	m["minixfs.ld_listops_op"] = ratio(float64(tt.fg[spLLDListOp].count), ops)
	m["minixfs.ld_flushes"] = float64(tt.fg[spLLDFlush].count)
	d := addInts(f.snaps[1], f.snaps[0], -1)
	m["minixfs.cache_hit_frac"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	m["minixfs.readahead_blocks"] = float64(d.ReadaheadBlocks)
}

// drop empties the buffer cache between phases, outside their clocks, as
// the paper did.
func (f *fsStack) drop(e *env) { e.clients[0].check(f.fs.DropCaches() == nil) }

// sync closes a phase that wrote.
func (f *fsStack) sync(c *client) {
	t0 := c.start(spFsSync)
	err := f.fs.Sync()
	c.stop(spFsSync, t0, nil)
	c.check(err == nil)
}

// fileSet is one of Table 4's two populations.
type fileSet struct {
	tag   string // phase names: c<tag>, r<tag>, d<tag>
	names []string
	st    *stamper
	buf   []byte
}

// fsSmall runs Table 4 — create, read, delete 10,000 1-KB files, then
// 1,000 10-KB files, all in the root directory — round after round on one
// aging file system. Every file of round r carries version r.
type fsSmall struct {
	fsStack
	sets [2]fileSet
	ver  uint32
}

func (w *fsSmall) build(e *env) error {
	for i, s := range []struct {
		tag     string
		n, size int
	}{{"1k", 10000, 1024}, {"10k", 1000, 10240}} {
		fsn := fileSet{tag: s.tag, st: newStamper(e.seed, s.size), buf: make([]byte, s.size)}
		for j := 0; j < s.n; j++ {
			fsn.names = append(fsn.names, fmt.Sprintf("/s%d-%06d", i, j))
		}
		w.sets[i] = fsn
	}
	w.ver = 0
	return w.fsStack.build(e)
}

func (w *fsSmall) create(c *client, s *fileSet) {
	for i, name := range s.names {
		p := s.st.payload(0, uint32(i), w.ver)
		t0 := c.start(spFsCreate)
		f, err := w.fs.Create(name)
		if err == nil {
			_, err = f.WriteAt(p, 0)
			err = errors.Join(err, f.Close())
		}
		c.stop(spFsCreate, t0, &c.writeLat)
		if c.count(1, err == nil) {
			c.writeBytes += int64(len(p))
		}
	}
	w.sync(c)
}

func (w *fsSmall) read(c *client, s *fileSet) {
	for i, name := range s.names {
		t0 := c.start(spFsRead)
		n := 0
		f, err := w.fs.Open(name)
		if err == nil {
			n, err = f.ReadAt(s.buf, 0)
			err = errors.Join(err, f.Close())
		}
		c.stop(spFsRead, t0, &c.readLat)
		if c.count(1, err == nil && s.st.verify(s.buf[:n], 0, uint32(i), w.ver)) {
			c.readBytes += int64(n)
		}
	}
}

func (w *fsSmall) unlink(c *client, s *fileSet) {
	for _, name := range s.names {
		t0 := c.start(spFsUnlink)
		err := w.fs.Unlink(name)
		c.stop(spFsUnlink, t0, &c.writeLat)
		c.count(1, err == nil)
	}
	w.sync(c)
}

func (w *fsSmall) round(e *env) {
	w.ver++
	for i := range w.sets {
		w.population(e, &w.sets[i])
	}
}

// population is Table 4 for one file set: create, read, delete.
func (w *fsSmall) population(e *env, s *fileSet) {
	w.drop(e)
	e.phase("c"+s.tag, pureWrite, func(c *client) { w.create(c, s) })
	w.drop(e)
	e.phase("r"+s.tag, pureRead, func(c *client) { w.read(c, s) })
	w.drop(e)
	// Deleting moves no user bytes: neither a pure-read nor a pure-write
	// phase.
	e.phase("d"+s.tag, mixedPhase, func(c *client) { w.unlink(c, s) })
}

// finish leaves both populations on disk, so that the crash test has
// 11,000 acknowledged files to find.
func (w *fsSmall) finish(e *env) {
	w.ver++
	for i := range w.sets {
		w.create(e.clients[0], &w.sets[i])
	}
}

// A round of fsSmall ends with an empty file system and the run with a
// full one.
func (w *fsSmall) cuttable() bool { return false }

func (w *fsSmall) verify(e *env) {
	c := e.clients[0]
	w.fsck(c)
	ents, err := w.fs.ReadDir("/")
	c.check(err == nil && len(ents) == len(w.sets[0].names)+len(w.sets[1].names))
	for i := range w.sets {
		w.read(c, &w.sets[i])
	}
}

func (w *fsSmall) layers(e *env, tt *totals, ops float64, m map[string]float64) {
	w.fsStack.layers(e, tt, ops, m)
	w.paper(e, m)
}

// paper fills paper.t4.* from round 1.
func (w *fsSmall) paper(e *env, m map[string]float64) {
	// The paper, and harness after it, gave each population a fresh file
	// system. The warm-up round is that for the 1-KB files only, so the
	// 10-KB files run once more on a scratch stack.
	phases := e.warm.phases[:3]
	fresh := &fsSmall{}
	e2 := &env{seed: e.seed, cur: &roundStat{}}
	if err := fresh.build(e2); err == nil {
		fresh.ver = 1
		fresh.population(e2, &fresh.sets[1])
		fresh.discard(e2)
		phases = append(phases[:3:3], e2.cur.phases...)
	}
	for _, p := range phases {
		m["paper.t4."+p.name+"_files_s"] = ratio(float64(p.ops), p.virt.Seconds())
	}
}

// fsLarge runs Table 5 — sequential write, sequential read, random write,
// random read, sequential re-read of one 80-MB file in 8-KB chunks —
// round after round on the same file, so from the third round the log
// has wrapped and the cleaner works beside it.
type fsLarge struct {
	fsStack
	file vfs.File
	st   *stamper
	ver  []uint32
	buf  []byte
}

func (w *fsLarge) build(e *env) error {
	w.st = newStamper(e.seed, chunkSize)
	w.ver = make([]uint32, nChunks)
	w.buf = make([]byte, chunkSize)
	if err := w.fsStack.build(e); err != nil {
		return err
	}
	var err error
	w.file, err = w.fs.Create("/large-file")
	return err
}

func (w *fsLarge) write(c *client, order func(i int) int) {
	for k := 0; k < nChunks; k++ {
		i := order(k)
		w.ver[i]++
		p := w.st.payload(0, uint32(i), w.ver[i])
		t0 := c.start(spFsWrite)
		_, err := w.file.WriteAt(p, int64(i)*chunkSize)
		c.stop(spFsWrite, t0, &c.writeLat)
		if c.count(1, err == nil) {
			c.writeBytes += chunkSize
		}
	}
	w.sync(c)
}

func (w *fsLarge) read(c *client, order func(i int) int) {
	for k := 0; k < nChunks; k++ {
		i := order(k)
		t0 := c.start(spFsRead)
		n, err := w.file.ReadAt(w.buf, int64(i)*chunkSize)
		c.stop(spFsRead, t0, &c.readLat)
		if c.count(1, err == nil && w.st.verify(w.buf[:n], 0, uint32(i), w.ver[i])) {
			c.readBytes += chunkSize
		}
	}
}

func (w *fsLarge) round(e *env) {
	seq := func(i int) int { return i }
	random := func(c *client) func(int) int {
		perm := c.rng.Perm(nChunks)
		return func(i int) int { return perm[i] }
	}
	w.drop(e)
	e.phase("wseq", pureWrite, func(c *client) { w.write(c, seq) })
	w.drop(e)
	e.phase("rseq", pureRead, func(c *client) { w.read(c, seq) })
	w.drop(e)
	e.phase("wrand", pureWrite, func(c *client) { w.write(c, random(c)) })
	w.drop(e)
	e.phase("rrand", pureRead, func(c *client) { w.read(c, random(c)) })
	w.drop(e)
	e.phase("rrseq", pureRead, func(c *client) { w.read(c, seq) })
}

// finish has nothing to add: the last write phase ended with a Sync, so
// every chunk's latest version is acknowledged.
func (w *fsLarge) finish(e *env) {}

func (w *fsLarge) cuttable() bool { return true }

func (w *fsLarge) verify(e *env) {
	c := e.clients[0]
	w.fsck(c)
	var err error
	w.file, err = w.fs.Open("/large-file")
	c.check(err == nil && w.file.Size() == largeBytes)
	if err == nil {
		w.read(c, func(i int) int { return i })
	}
}

func (w *fsLarge) layers(e *env, tt *totals, ops float64, m map[string]float64) {
	w.fsStack.layers(e, tt, ops, m)
	w.paper(e, m)
}

// paper fills paper.t5.* from round 1.
func (w *fsLarge) paper(e *env, m map[string]float64) {
	for _, p := range e.warm.phases {
		m["paper.t5."+p.name+"_kb_s"] = ratio(largeBytes/1024, p.virt.Seconds())
	}
}
