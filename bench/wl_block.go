package main

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/ld"
	"repro/internal/mdisk"
	netclient "repro/internal/netld/client"
	"repro/internal/netld/server"
)

const (
	blockSize  = 4096
	flushEvery = 64  // writes between Flush(FailPower) calls, per client
	scanBatch  = 256 // blocks per ReadBlocks call
)

// blockPhase is one phase of a block workload: ops single-block ops per
// client, then scans ReadBlocks passes over the client's list.
type blockPhase struct {
	name     string
	kind     phaseKind
	ops      int
	readFrac float64 // share of reads among the single ops
	hot      bool    // 90 % of writes go to the hottest 10 % of the client's blocks
	scans    int
}

// blockWL drives logical blocks through an ld.Disk: *lld.LLD itself
// (ld-churn) or one netld client per client (net-mixed). Each client owns
// one clustered list and the blocks on it, so it knows the exact version
// every read must return.
type blockWL struct {
	platters     int
	platterBytes int64
	fill         float64 // working set as a share of lld's UsableBytes
	net          bool
	phases       []blockPhase

	per []*blockClient

	srv    *server.Server
	served chan error // Serve's return
	wire   wireStats

	snaps [2]struct {
		srv    server.Stats
		mirror mdisk.MirrorStats
		wire   struct{ bytes, calls, frames int64 }
	}
}

type blockClient struct {
	d      ld.Disk
	nc     *netclient.Client
	list   ld.ListID
	blocks []ld.BlockID // in list order
	ver    []uint32
	st     *stamper
	rbuf   []byte
	bufs   [][]byte // scanBatch read buffers
	unsync int      // writes since the last Flush
}

func ldChurn() *blockWL {
	return &blockWL{platters: 1, platterBytes: 64 << 20, fill: 0.60, phases: []blockPhase{
		{name: "overwrite", kind: pureWrite, ops: 12000, hot: true},
		{name: "read", kind: pureRead, ops: 12000, readFrac: 1},
		{name: "mixed", kind: mixedPhase, ops: 12000, readFrac: 0.5},
	}}
}

func netMixed() *blockWL {
	return &blockWL{platters: 2, platterBytes: 256 << 20, fill: 0.25, net: true, phases: []blockPhase{
		{name: "write", kind: pureWrite, ops: 2500},
		{name: "read1", kind: pureRead, ops: 2500, readFrac: 1},
		{name: "scan", kind: pureRead, scans: 1},
		{name: "mixed", kind: mixedPhase, ops: 2500, readFrac: 0.7},
	}}
}

func (w *blockWL) build(e *env) error {
	st, err := newStack(e.tr, w.platters, w.platterBytes)
	if err != nil {
		return err
	}
	e.st = st
	e.addClients(nClients())
	var top ld.Disk = st.l
	if e.tr != nil {
		top = &tracedLD{Disk: st.l, tr: e.tr}
	}

	// Populate straight on lld: one clustered list per client, every
	// block written once at version 1.
	nPer := int(w.fill*float64(st.l.UsableBytes())) / blockSize / len(e.clients)
	w.per = nil
	for _, c := range e.clients {
		bc := &blockClient{d: top, st: newStamper(e.seed+int64(c.id), blockSize),
			ver: make([]uint32, nPer), rbuf: make([]byte, blockSize)}
		if bc.list, err = st.l.NewList(ld.NilList, ld.ListHints{Cluster: true}); err != nil {
			return err
		}
		pred := ld.NilBlock
		for i := 0; i < nPer; i++ {
			b, err := st.l.NewBlock(bc.list, pred)
			if err != nil {
				return fmt.Errorf("populate: %w", err)
			}
			bc.ver[i] = 1
			if err := st.l.Write(b, bc.st.payload(c.id, uint32(i), 1)); err != nil {
				return fmt.Errorf("populate: %w", err)
			}
			bc.blocks = append(bc.blocks, b)
			pred = b
		}
		w.per = append(w.per, bc)
	}
	if err := st.l.Flush(ld.FailPower); err != nil {
		return err
	}
	if !w.net {
		return nil
	}

	w.srv = server.New(server.Config{Disk: top})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	var tl *tracedListener
	if e.tr != nil {
		tl = &tracedListener{Listener: ln, tr: e.tr, clients: make(map[string]*thread)}
		ln = tl
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	for i, c := range e.clients {
		bc := w.per[i]
		if tl != nil {
			bc.nc, err = netclient.New(tl.dialer(addr, c.th, &w.wire), netclient.Options{})
		} else {
			bc.nc, err = netclient.Dial(addr, netclient.Options{})
		}
		if err != nil {
			return err
		}
		bc.d = bc.nc
		bc.bufs = make([][]byte, scanBatch)
		for j := range bc.bufs {
			bc.bufs[j] = make([]byte, blockSize)
		}
	}
	return nil
}

func (w *blockWL) round(e *env) {
	for _, ph := range w.phases {
		ph := ph
		e.phase(ph.name, ph.kind, func(c *client) { w.per[c.id].run(c, ph, w.net) })
	}
}

func (bc *blockClient) run(c *client, ph blockPhase, overNet bool) {
	rd, wr, scan := spNone, spNone, spNone
	if overNet { // over lld directly, the tracedLD span is the op's span
		rd, wr, scan = spNetRead, spNetWrite, spNetScan
	}
	n := len(bc.blocks)
	nHot := n / 10
	for k := 0; k < ph.ops; k++ {
		if ph.readFrac == 1 || ph.readFrac > 0 && c.rng.Float64() < ph.readFrac {
			i := c.rng.Intn(n)
			t0 := c.start(rd)
			got, err := bc.d.Read(bc.blocks[i], bc.rbuf)
			c.stop(rd, t0, &c.readLat)
			if c.count(1, err == nil && bc.st.verify(bc.rbuf[:got], c.id, uint32(i), bc.ver[i])) {
				c.readBytes += blockSize
			}
			continue
		}
		i := c.rng.Intn(n)
		if ph.hot {
			if c.rng.Intn(10) < 9 {
				i = c.rng.Intn(nHot)
			} else {
				i = nHot + c.rng.Intn(n-nHot)
			}
		}
		bc.ver[i]++
		buf := bc.st.payload(c.id, uint32(i), bc.ver[i])
		t0 := c.start(wr)
		err := bc.d.Write(bc.blocks[i], buf)
		if bc.unsync++; bc.unsync == flushEvery {
			bc.unsync = 0
			err = errors.Join(err, bc.d.Flush(ld.FailPower))
		}
		c.stop(wr, t0, &c.writeLat)
		if c.count(1, err == nil) {
			c.writeBytes += blockSize
		}
	}
	for s := 0; s < ph.scans; s++ {
		for lo := 0; lo < n; lo += scanBatch {
			hi := lo + scanBatch
			if hi > n {
				hi = n
			}
			t0 := c.start(scan)
			res, err := ld.ReadBlocks(bc.d, bc.blocks[lo:hi], bc.bufs[:hi-lo])
			c.stop(scan, t0, nil)
			ok := err == nil
			for j := 0; ok && j < len(res); j++ {
				i := lo + j
				ok = res[j].Err == nil && bc.st.verify(bc.bufs[j][:res[j].N], c.id, uint32(i), bc.ver[i])
			}
			if c.count(int64(hi-lo), ok) {
				c.readBytes += int64(hi-lo) * blockSize
				c.scanned += int64(hi - lo)
			}
		}
	}
}

func (w *blockWL) finish(e *env) {
	c := e.clients[0]
	c.check(w.per[0].d.Flush(ld.FailPower) == nil)
}

func (w *blockWL) cuttable() bool { return true }

// stopNet closes the clients and the server and waits for Serve.
func (w *blockWL) stopNet() error {
	if w.srv == nil {
		return nil
	}
	for _, bc := range w.per {
		bc.nc.Close()
	}
	w.srv.Close()
	w.srv = nil
	return <-w.served
}

func (w *blockWL) crash(e *env) error {
	if err := w.stopNet(); err != nil {
		return err
	}
	return e.st.crash()
}

func (w *blockWL) discard(e *env) {
	w.stopNet()
	e.st.crash()
}

func (w *blockWL) recover(e *env) error { return e.reopen() }

// verify reads every block back from the recovered lld, below the
// network: the list must hold the same blocks in the same order and each
// block exactly its last acknowledged version.
func (w *blockWL) verify(e *env) {
	for i, c := range e.clients {
		bc := w.per[i]
		got, err := e.st.l.ListBlocks(bc.list)
		same := err == nil && len(got) == len(bc.blocks)
		for j := 0; same && j < len(got); j++ {
			same = got[j] == bc.blocks[j]
		}
		c.check(same)
		for j, b := range bc.blocks {
			n, err := e.st.l.Read(b, bc.rbuf)
			c.check(err == nil && bc.st.verify(bc.rbuf[:n], c.id, uint32(j), bc.ver[j]))
		}
	}
}

func (w *blockWL) snap(e *env, i int) {
	if !w.net {
		return
	}
	s := &w.snaps[i]
	s.srv = w.srv.Stats()
	s.mirror = e.st.mirror.Stats()
	s.wire.bytes, s.wire.calls, s.wire.frames = w.wire.bytes.Load(), w.wire.calls.Load(), w.wire.frames.Load()
}

func (w *blockWL) layers(e *env, tt *totals, ops float64, m map[string]float64) {
	if !w.net {
		return
	}
	a, b := &w.snaps[0], &w.snaps[1]
	top := tt.sum(spNetRead, spNetWrite, spNetScan)
	srv := tt.fg[spNetServer]
	m["netld.client.self_us_op"] = ratio(float64(top.dur-srv.dur)/1e3, ops)
	m["netld.server.self_us_op"] = ratio(float64(srv.self)/1e3, ops)
	wireBytes := float64(b.wire.bytes - a.wire.bytes)
	var user, scanned int64
	for _, c := range e.clients {
		user += c.readBytes + c.writeBytes
		scanned += c.scanned
	}
	m["netld.wire.bytes_op"] = ratio(wireBytes, ops)
	m["netld.wire.overhead_frac"] = ratio(wireBytes, float64(user-e.base.readBytes-e.base.writeBytes)) - 1
	m["netld.wire.conn_calls_op"] = ratio(float64(b.wire.calls-a.wire.calls), ops)
	m["netld.wire.frames_op"] = ratio(float64(b.wire.frames-a.wire.frames), ops)
	if scan := tt.fg[spNetScan]; scan.h != nil {
		m["netld.scan.batch_p50_us"] = scan.h.quantile(0.5) / 1e3
		m["netld.scan.batch_p99_us"] = scan.h.quantile(0.99) / 1e3
		m["netld.scan.blocks_s"] = ratio(float64(scanned-e.base.scanned), float64(scan.dur)/1e9)
	}
	var errs uint64
	for name, o := range b.srv.Ops {
		errs += o.Errors - a.srv.Ops[name].Errors
	}
	m["netld.server.op_errors"] = float64(errs)
	m["netld.server.readmulti_chunks"] = float64(b.srv.ReadMultiChunks - a.srv.ReadMultiChunks)
	var dials uint64
	for _, bc := range w.per {
		dials += bc.nc.Dials()
	}
	m["netld.client.dials"] = float64(dials)

	dev, leg := tt.all(devKinds...), tt.all(legKinds...)
	m["mdisk.self_us_call"] = ratio(float64(dev.dur-leg.dur)/1e3, float64(dev.count))
	m["mdisk.leg_ops"] = float64(leg.count)
	m["mdisk.degraded_reads"] = float64(b.mirror.DegradedReads - a.mirror.DegradedReads)
	m["mdisk.heals"] = float64(b.mirror.Heals - a.mirror.Heals)
}
