package ldtest

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
	"repro/internal/lld"
	"repro/internal/uld"
)

// mountable is an LD implementation the test formats and mounts on a disk
// it holds, so that it can mount the same image again.
type mountable struct {
	name   string
	format func(*disk.Disk) error
	open   func(*disk.Disk) (ld.Disk, error)
}

var mountables = []mountable{
	{"lld",
		func(d *disk.Disk) error { return lld.Format(d, contractLLDOptions()) },
		func(d *disk.Disk) (ld.Disk, error) { return lld.Open(d, contractLLDOptions()) }},
	{"uld",
		func(d *disk.Disk) error { return uld.Format(d, uld.DefaultOptions()) },
		func(d *disk.Disk) (ld.Disk, error) { return uld.Open(d, uld.DefaultOptions()) }},
}

func contractLLDOptions() lld.Options {
	o := lld.DefaultOptions()
	o.SegmentSize = 64 * 1024
	o.SummarySize = 8 * 1024
	return o
}

// TestNewIDsLowestFreeFirst holds the allocation rule of ld.Disk.NewBlock:
// freed block and list numbers come back lowest first, whatever order they
// were freed in, and a mount after a crash or after a clean shutdown hands
// out the same numbers the running instance would have.
func TestNewIDsLowestFreeFirst(t *testing.T) {
	const nBlocks, nLists = 40, 12
	for _, m := range mountables {
		t.Run(m.name, func(t *testing.T) {
			cfg := disk.DefaultConfig(16 << 20)
			d := disk.New(cfg)
			if err := m.format(d); err != nil {
				t.Fatal(err)
			}
			l, err := m.open(d)
			if err != nil {
				t.Fatal(err)
			}
			var lists []ld.ListID
			for range nLists {
				lid, err := l.NewList(ld.NilList, ld.ListHints{})
				if err != nil {
					t.Fatal(err)
				}
				lists = append(lists, lid)
			}
			home := lists[0]
			var blocks []ld.BlockID
			pred := ld.NilBlock
			for i := range nBlocks {
				b, err := l.NewBlock(home, pred)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Write(b, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				blocks, pred = append(blocks, b), b
			}

			// Free half of each in a shuffled order; the highest block and
			// list are among them, so a mount must not hand out a fresh
			// number while the pool still holds a lower one.
			rng := rand.New(rand.NewSource(1))
			freedBlocks := append([]ld.BlockID{blocks[nBlocks-1]}, pick(rng, blocks[:nBlocks-1], nBlocks/2-1)...)
			freedLists := append([]ld.ListID{lists[nLists-1]}, pick(rng, lists[1:nLists-1], nLists/2-1)...)
			rng.Shuffle(len(freedBlocks), func(i, j int) { freedBlocks[i], freedBlocks[j] = freedBlocks[j], freedBlocks[i] })
			rng.Shuffle(len(freedLists), func(i, j int) { freedLists[i], freedLists[j] = freedLists[j], freedLists[i] })
			for _, b := range freedBlocks {
				if err := l.DeleteBlock(b, home, ld.NilBlock); err != nil {
					t.Fatal(err)
				}
			}
			for _, lid := range freedLists {
				if err := l.DeleteList(lid, ld.NilList); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Flush(ld.FailPower); err != nil {
				t.Fatal(err)
			}
			img := d.Snapshot()

			// The pools drain lowest first, then fresh numbers follow.
			wantBlocks := append(sorted(freedBlocks), slices.Max(blocks)+1, slices.Max(blocks)+2)
			wantLists := append(sorted(freedLists), slices.Max(lists)+1, slices.Max(lists)+2)
			check := func(how string, l ld.Disk) {
				t.Helper()
				gotBlocks, gotLists := drawIDs(t, l, home, len(wantBlocks), len(wantLists))
				if !slices.Equal(gotBlocks, wantBlocks) {
					t.Errorf("%s: NewBlock returned %v, want %v", how, gotBlocks, wantBlocks)
				}
				if !slices.Equal(gotLists, wantLists) {
					t.Errorf("%s: NewList returned %v, want %v", how, gotLists, wantLists)
				}
				if err := l.Shutdown(false); err != nil {
					t.Fatal(err)
				}
			}
			check("running", l)

			mount := func() (*disk.Disk, ld.Disk) {
				t.Helper()
				d := disk.New(cfg)
				if err := d.Restore(img); err != nil {
					t.Fatal(err)
				}
				l, err := m.open(d)
				if err != nil {
					t.Fatal(err)
				}
				return d, l
			}
			_, crashed := mount()
			check("crash mount", crashed)

			d2, l2 := mount()
			if err := l2.Shutdown(true); err != nil {
				t.Fatal(err)
			}
			clean, err := m.open(d2)
			if err != nil {
				t.Fatal(err)
			}
			check("clean mount", clean)
		})
	}
}

// pick returns n distinct members of ids chosen by rng.
func pick[T any](rng *rand.Rand, ids []T, n int) []T {
	out := slices.Clone(ids)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

func sorted[T ~uint32](ids []T) []T {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// drawIDs allocates nb blocks on lid and nl lists and returns their numbers
// in the order they were handed out.
func drawIDs(t *testing.T, l ld.Disk, lid ld.ListID, nb, nl int) ([]ld.BlockID, []ld.ListID) {
	t.Helper()
	var bs []ld.BlockID
	for range nb {
		b, err := l.NewBlock(lid, ld.NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	var ls []ld.ListID
	for range nl {
		lid, err := l.NewList(ld.NilList, ld.ListHints{})
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, lid)
	}
	return bs, ls
}
