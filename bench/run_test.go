package main

import (
	"testing"
	"time"
)

// quick shrinks ld-churn to a few thousand ops per phase.
func quick() *blockWL {
	w := ldChurn()
	for i := range w.phases {
		w.phases[i].ops = 2000
	}
	return w
}

func TestCrashEpilogueVerifiesEverything(t *testing.T) {
	w := quick()
	e, err := setup(w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{wd: &watchdog{}}
	if err := r.epilogue(w, e); err != nil {
		t.Fatal(err)
	}
	w.discard(e)
	blocks := 0
	for _, bc := range w.per {
		blocks += len(bc.blocks)
	}
	if r.failed != 0 || r.attempted < int64(blocks) {
		t.Fatalf("attempted %d failed %d over %d blocks", r.attempted, r.failed, blocks)
	}
}

// A power cut recovers a copy: the stack it was taken from keeps running
// and still holds everything.
func TestPowerCutLeavesTheStackAlone(t *testing.T) {
	w := quick()
	e, err := setup(w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.discard(e)
	virt, err := e.st.powerCut()
	if err != nil || virt <= 0 {
		t.Fatalf("recovery took %v virtual time, err %v", virt, err)
	}
	e.runRound(w)
	w.verify(e)
	if _, failed := e.totals(); failed != 0 {
		t.Fatalf("%d failed ops after a power cut on the copy", failed)
	}
}

// A read that returns anything but the last acknowledged version must
// count as a failed op, whether lld notices (platter rot under its
// checksums) or only the driver's model can (a lost write).
func TestCorruptedReadsAreCountedFailed(t *testing.T) {
	t.Run("lost write", func(t *testing.T) {
		w := quick()
		e, err := setup(w, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.discard(e)
		w.per[0].ver[5]++ // the model saw a write the disk never got
		w.verify(e)
		if _, failed := e.totals(); failed != 1 {
			t.Fatalf("failed = %d, want 1", failed)
		}
	})
	t.Run("platter rot", func(t *testing.T) {
		w := quick()
		e, err := setup(w, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.discard(e)
		if err := e.st.l.Flush(1); err != nil {
			t.Fatal(err)
		}
		d := e.st.platters[0]
		d.CorruptRange(d.Capacity()/2, d.Capacity()/2-4096, 0x55)
		e.runRound(w)
		if _, failed := e.totals(); failed == 0 {
			t.Fatal("reads of a rotted platter were counted as correct")
		}
	})
}

func TestTracedRunFillsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs net-mixed for a second")
	}
	r := &run{name: "net-mixed", seed: 1, dur: 900 * time.Millisecond, wd: &watchdog{}}
	if err := r.traced(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed ops", r.failed)
	}
	for _, name := range []string{"bench.gen_us_op", "netld.client.self_us_op", "netld.server.self_us_op",
		"netld.wire.bytes_op", "netld.scan.blocks_s", "lld.read.mean_us", "lld.self_us_op", "lld.dev.reads",
		"lld.recovery.dev_reads", "mdisk.self_us_call", "mdisk.leg_ops", "disk.busy_virt_s", "disk.wall_us_call"} {
		if r.m[name] <= 0 {
			t.Errorf("%s = %v", name, r.m[name])
		}
	}
	for _, d := range perLayer {
		if _, ok := r.m[d.Name]; !ok && d.Name[:5] != "paper" && d.Name[:7] != "minixfs" {
			t.Errorf("%s not measured", d.Name)
		}
	}
}
