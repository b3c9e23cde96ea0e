package main

import (
	"repro/internal/disk"
	"repro/internal/lld"
)

// snapshot is what the runner reads at both ends of the traced region:
// the drivers' counters, the public Stats() of lld and the platters, and
// the B5 wrapper's counters.
type snapshot struct {
	ops, loopNS, apiNS int64
	readBytes          int64
	writeBytes         int64
	scanned            int64
	lld                lld.Stats
	platters           []disk.Stats
	dev                devCounts
}

func takeSnapshot(e *env) snapshot {
	s := snapshot{lld: e.st.l.Stats(), dev: e.st.dev.values()}
	for _, c := range e.clients {
		s.ops += c.ops
		s.loopNS += c.loopNS
		s.apiNS += c.apiNS
		s.readBytes += c.readBytes
		s.writeBytes += c.writeBytes
		s.scanned += c.scanned
	}
	for _, d := range e.st.platters {
		s.platters = append(s.platters, d.Stats())
	}
	return s
}

func us(ns float64) float64 { return ns / 1e3 }

// lowerLayers fills the lld.*, mdisk.leg_read_imbalance and disk.*
// metrics, which every workload has.
func lowerLayers(e *env, tt *totals, a, b snapshot, ops float64, m map[string]float64) {
	calls := func(name string, k ...spanKind) kindStat {
		s := tt.sum(k...)
		m["lld."+name+".mean_us"] = us(ratio(float64(s.dur), float64(s.count)))
		return s
	}
	p99 := func(name string, s kindStat) {
		if s.h != nil {
			m["lld."+name+".p99_us"] = us(s.h.quantile(0.99))
		}
	}
	p99("read", calls("read", spLLDRead))
	p99("write", calls("write", spLLDWrite))
	p99("flush", calls("flush", spLLDFlush))
	calls("listop", spLLDAlloc, spLLDListOp)
	calls("readblocks", spLLDReadBlocks)
	all := tt.sum(spLLDRead, spLLDWrite, spLLDFlush, spLLDAlloc, spLLDListOp, spLLDReadBlocks, spLLDOther)
	m["lld.self_us_op"] = us(ratio(float64(all.self), ops))

	dev := addInts(b.dev, a.dev, -1)
	m["lld.dev.reads"], m["lld.dev.read_bytes"] = float64(dev.Reads), float64(dev.ReadBytes)
	m["lld.dev.writes"], m["lld.dev.write_bytes"] = float64(dev.Writes), float64(dev.WriteBytes)
	m["lld.dev.full_seg_writes"] = float64(dev.Full)
	m["lld.dev.partial_writes"] = float64(dev.Partial)
	m["lld.dev.small_writes"] = float64(dev.Small)
	m["lld.dev.nvram_writes"], m["lld.dev.syncs"] = float64(dev.NVRAM), float64(dev.Syncs)
	devAll := tt.all(devKinds...)
	m["lld.dev.wall_us_call"] = us(ratio(float64(devAll.dur), float64(devAll.count)))
	m["lld.bg.dev_writes"] = float64(tt.bg[spDevWrite].count + tt.bg[spDevNVRAM].count)
	m["lld.bg.dev_wall_s"] = float64(devAll.dur-tt.sum(devKinds...).dur) / 1e9

	ls := addInts(b.lld, a.lld, -1)
	m["lld.read_amp"] = ratio(float64(dev.ReadBytes), float64(ls.UserBytesRead))
	m["lld.segments_sealed"] = float64(ls.SegmentsSealed)
	m["lld.partial_seg_writes"] = float64(ls.PartialWrites)
	m["lld.flushes"] = float64(ls.Flushes)
	m["lld.cleaner_runs"] = float64(ls.CleanerRuns)
	m["lld.segments_cleaned"] = float64(ls.SegmentsCleaned)
	m["lld.blocks_moved"] = float64(ls.BlocksMoved)
	m["lld.clean_moved_frac"] = ratio(float64(ls.BlocksMoved), float64(ls.BlocksWritten))
	m["lld.writer_waits"] = float64(ls.WriterWaits)
	m["lld.seal_waits"] = float64(ls.SealWaits)
	m["lld.async_seals"] = float64(ls.AsyncSeals)
	m["lld.group_commits"] = float64(ls.GroupCommits)
	m["lld.grouped_seals"] = float64(ls.GroupedSeals)
	m["lld.spurious_wakeups"] = float64(ls.SpuriousWakeups)
	m["lld.sharded_writes"] = float64(ls.ShardedWrites)
	m["lld.batch_reads"] = float64(ls.BatchReads)
	m["lld.hint_hit_frac"] = ratio(float64(ls.HintHits), float64(ls.HintHits+ls.HintMisses))
	m["lld.consolidations"] = float64(ls.Consolidations)
	m["lld.map_shards"] = float64(b.lld.MapShards)
	m["lld.segment_lanes"] = float64(b.lld.SegmentLanes)

	var sum disk.Stats
	minReads, maxReads := int64(-1), int64(0)
	for i := range b.platters {
		d := addInts(b.platters[i], a.platters[i], -1)
		sum = addInts(sum, d, 1)
		if minReads < 0 || d.Reads < minReads {
			minReads = d.Reads
		}
		if d.Reads > maxReads {
			maxReads = d.Reads
		}
	}
	if len(b.platters) > 1 {
		m["mdisk.leg_read_imbalance"] = ratio(float64(maxReads), float64(minReads))
	}
	busy := float64(sum.BusyTime())
	reqs := float64(sum.Reads + sum.Writes)
	ss := float64(e.st.backend.SectorSize())
	m["disk.busy_virt_s"] = busy / 1e9
	m["disk.seek_frac"] = ratio(float64(sum.SeekTime), busy)
	m["disk.rotate_frac"] = ratio(float64(sum.RotationTime), busy)
	m["disk.transfer_frac"] = ratio(float64(sum.TransferTime), busy)
	m["disk.overhead_frac"] = ratio(float64(sum.OverheadTime), busy)
	m["disk.seeks"] = float64(sum.Seeks)
	m["disk.seeks_per_req"] = ratio(float64(sum.Seeks), reqs)
	m["disk.read_req_kb"] = ratio(float64(sum.SectorsRead)*ss/1024, float64(sum.Reads))
	m["disk.write_req_kb"] = ratio(float64(sum.SectorsWritten)*ss/1024, float64(sum.Writes))
	// The platters sit directly under B5, or under B6 behind a mirror.
	platter := devAll
	if len(b.platters) > 1 {
		platter = tt.all(legKinds...)
	}
	m["disk.wall_us_call"] = us(ratio(float64(platter.dur), float64(platter.count)))
}
