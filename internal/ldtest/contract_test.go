// Package ldtest holds implementation-independent contract tests for the
// Logical Disk interface: both implementations (log-structured LLD and
// update-in-place ULD) must expose identical semantics for every
// operation sequence.
package ldtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/uld"
)

func newLLD(t *testing.T) ld.Disk {
	t.Helper()
	d := disk.New(disk.DefaultConfig(16 << 20))
	o := contractLLDOptions()
	if err := lld.Format(d, o); err != nil {
		t.Fatal(err)
	}
	l, err := lld.Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newULD(t *testing.T) ld.Disk {
	t.Helper()
	d := disk.New(disk.DefaultConfig(16 << 20))
	o := uld.DefaultOptions()
	if err := uld.Format(d, o); err != nil {
		t.Fatal(err)
	}
	u, err := uld.Open(d, o)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// state captures the externally visible content of an LD.
func state(t *testing.T, l ld.Disk) string {
	t.Helper()
	var b bytes.Buffer
	lists, err := l.Lists()
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range lists {
		ids, err := l.ListBlocks(lid)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "L%d:", lid)
		buf := make([]byte, l.MaxBlockSize())
		for _, blk := range ids {
			n, err := l.Read(blk, buf)
			if err != nil {
				t.Fatalf("read %d: %v", blk, err)
			}
			fmt.Fprintf(&b, " %d=%x", blk, buf[:n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCrossImplementationLockstep drives the same random operation
// sequence against both implementations and compares the visible state
// and every return value along the way.
func TestCrossImplementationLockstep(t *testing.T) {
	runLockstep(t, newLLD, newULD, "lld", "uld")
}

// runLockstep is the contract suite's engine: it drives identical random
// operation sequences against two fixtures and requires identical return
// values and identical visible state throughout. Any ld.Disk — local or
// remote — must pass against any other.
func runLockstep(t *testing.T, newA, newB func(*testing.T) ld.Disk, nameA, nameB string) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			impls := []ld.Disk{newA(t), newB(t)}
			opRng := rand.New(rand.NewSource(seed))
			inARU := false
			for step := 0; step < 400; step++ {
				op := opRng.Intn(20)
				// Both implementations see identical random choices: a
				// per-step seed drives each applyOp run.
				stepSeed := seed*1000003 + int64(step)
				lists0, err := impls[0].Lists()
				if err != nil {
					t.Fatal(err)
				}
				res0 := applyOp(t, impls[0], op, rand.New(rand.NewSource(stepSeed)), lists0, inARU)
				lists1, err := impls[1].Lists()
				if err != nil {
					t.Fatal(err)
				}
				res1 := applyOp(t, impls[1], op, rand.New(rand.NewSource(stepSeed)), lists1, inARU)
				if res0 != res1 {
					t.Fatalf("step %d op %d diverged:\n %s: %s\n %s: %s", step, op, nameA, res0, nameB, res1)
				}
				switch res0 {
				case "beginaru false":
					inARU = true
				case "endaru false":
					inARU = false
				}
				if step%40 == 39 {
					if s0, s1 := state(t, impls[0]), state(t, impls[1]); s0 != s1 {
						t.Fatalf("step %d: states diverge:\n%s:\n%s\n%s:\n%s", step, nameA, s0, nameB, s1)
					}
				}
			}
			if inARU {
				for _, l := range impls {
					if err := l.EndARU(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s0, s1 := state(t, impls[0]), state(t, impls[1]); s0 != s1 {
				t.Fatalf("final states diverge:\n%s:\n%s\n%s:\n%s", nameA, s0, nameB, s1)
			}
		})
	}
}

// applyOp executes one operation deterministically (all random choices are
// derived from rng, which both implementations see identically) and
// returns a canonical result string.
func applyOp(t *testing.T, l ld.Disk, op int, rng *rand.Rand, lists []ld.ListID, inARU bool) string {
	t.Helper()
	switch {
	case op < 3 || len(lists) == 0:
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		return fmt.Sprintf("newlist %v %v", lid, err != nil)
	case op < 10:
		lid := lists[rng.Intn(len(lists))]
		ids, err := l.ListBlocks(lid)
		if err != nil {
			return "listblocks-err"
		}
		pred := ld.NilBlock
		if len(ids) > 0 && rng.Intn(2) == 0 {
			pred = ids[rng.Intn(len(ids))]
		}
		b, err := l.NewBlock(lid, pred)
		if err != nil {
			return "newblock-err"
		}
		data := bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(1500))
		werr := l.Write(b, data)
		return fmt.Sprintf("newblock %v write %v", b, werr != nil)
	case op < 13:
		lid := lists[rng.Intn(len(lists))]
		ids, _ := l.ListBlocks(lid)
		if len(ids) == 0 {
			return "skip"
		}
		b := ids[rng.Intn(len(ids))]
		err := l.DeleteBlock(b, lid, ld.NilBlock)
		return fmt.Sprintf("delete %v %v", b, err != nil)
	case op < 15:
		lid := lists[rng.Intn(len(lists))]
		ids, _ := l.ListBlocks(lid)
		if len(ids) < 2 {
			return "skip"
		}
		a, b := ids[0], ids[len(ids)-1]
		err := l.SwapContents(a, b)
		return fmt.Sprintf("swap %v", err != nil)
	case op < 17:
		lid := lists[rng.Intn(len(lists))]
		ids, _ := l.ListBlocks(lid)
		if len(ids) == 0 {
			return "skip"
		}
		i := rng.Intn(len(ids))
		b, err := l.ListIndex(lid, i)
		return fmt.Sprintf("index %d -> %v %v", i, b, err != nil)
	case op == 17:
		if inARU {
			return fmt.Sprintf("endaru %v", l.EndARU() != nil)
		}
		return fmt.Sprintf("beginaru %v", l.BeginARU() != nil)
	case op == 18:
		return fmt.Sprintf("flush %v", l.Flush(ld.FailPower) != nil)
	default:
		if len(lists) < 2 {
			return "skip"
		}
		src := lists[rng.Intn(len(lists))]
		dst := lists[rng.Intn(len(lists))]
		if src == dst {
			return "skip"
		}
		ids, _ := l.ListBlocks(src)
		if len(ids) == 0 {
			return "skip"
		}
		i := rng.Intn(len(ids))
		j := i + rng.Intn(len(ids)-i)
		err := l.MoveBlocks(ids[i], ids[j], src, dst, ld.NilBlock, ld.NilBlock)
		return fmt.Sprintf("move %v-%v %v", ids[i], ids[j], err != nil)
	}
}
