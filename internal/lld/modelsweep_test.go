package lld

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ld"
)

// The model-lockstep crash sweep drives every mutating LD primitive —
// block allocation and deletion, list creation and deletion, MoveBlocks,
// MoveList, SwapContents, rewrites — with each operation wrapped in an
// atomic recovery unit, against a trivial in-memory model. Because records
// become durable strictly in log order and each operation commits
// atomically, the state recovered after a crash at ANY sector must equal
// the model after some whole number of operations, no earlier than the
// last acknowledged Flush. This checks not just invariants but full state
// equality (list order, membership order, and block contents) at every
// crash point.

// msModel mirrors LD state: ordered lists of blocks, each with a content tag.
type msModel struct {
	order []ld.ListID
	lists map[ld.ListID][]ld.BlockID
	tag   map[ld.BlockID]byte
}

func (m *msModel) clone() *msModel {
	n := &msModel{
		order: append([]ld.ListID(nil), m.order...),
		lists: make(map[ld.ListID][]ld.BlockID, len(m.lists)),
		tag:   make(map[ld.BlockID]byte, len(m.tag)),
	}
	for k, v := range m.lists {
		n.lists[k] = append([]ld.BlockID(nil), v...)
	}
	for k, v := range m.tag {
		n.tag[k] = v
	}
	return n
}

// canon renders the model in a canonical, comparable form. List ids are
// sorted (id allocation order can differ from the list of lists) but each
// list's member order and contents are exact.
func (m *msModel) canon() string {
	ids := append([]ld.ListID(nil), m.order...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for _, lid := range ids {
		fmt.Fprintf(&sb, "L%d:", lid)
		for _, b := range m.lists[lid] {
			fmt.Fprintf(&sb, " %d=%d", b, m.tag[b])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// canonLD renders a live LD the same way.
func canonLD(t *testing.T, l *LLD) string {
	t.Helper()
	lists, err := l.Lists()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(lists, func(i, j int) bool { return lists[i] < lists[j] })
	buf := make([]byte, l.MaxBlockSize())
	var sb strings.Builder
	for _, lid := range lists {
		fmt.Fprintf(&sb, "L%d:", lid)
		blocks, err := l.ListBlocks(lid)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			n, err := l.Read(b, buf)
			if err != nil {
				t.Fatal(err)
			}
			tag := byte(0)
			if n > 0 {
				tag = buf[0]
				if !bytes.Equal(buf[:n], bytes.Repeat([]byte{tag}, n)) {
					t.Fatalf("block %d holds torn content", b)
				}
			}
			fmt.Fprintf(&sb, " %d=%d", b, tag)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// msOps applies operation step to both the LD and the model, inside one
// ARU. It returns false when the LD errored (the injected crash). The op
// mix is a pure function of step and of the deterministic model state.
func msOp(l *LLD, m *msModel, step int) bool {
	tag := byte(step%250) + 1
	content := bytes.Repeat([]byte{tag}, 600+(step%3)*300)
	pickList := func(k int) (ld.ListID, bool) {
		if len(m.order) == 0 {
			return 0, false
		}
		return m.order[k%len(m.order)], true
	}
	if l.BeginARU() != nil {
		return false
	}
	ok := func() bool {
		switch step % 11 {
		case 0, 1: // new list with two blocks
			lid, err := l.NewList(ld.NilList, ld.ListHints{})
			if err != nil {
				return false
			}
			m.order = append([]ld.ListID{lid}, m.order...)
			m.lists[lid] = nil
			for j := 0; j < 2; j++ {
				b, err := l.NewBlock(lid, ld.NilBlock)
				if err != nil {
					return false
				}
				if l.Write(b, content) != nil {
					return false
				}
				m.lists[lid] = append([]ld.BlockID{b}, m.lists[lid]...)
				m.tag[b] = tag
			}
		case 2, 3: // append a block to an existing list
			lid, ok := pickList(step)
			if !ok {
				return true
			}
			blocks := m.lists[lid]
			pred := ld.NilBlock
			if len(blocks) > 0 {
				pred = blocks[len(blocks)-1]
			}
			b, err := l.NewBlock(lid, pred)
			if err != nil {
				return false
			}
			if l.Write(b, content) != nil {
				return false
			}
			m.lists[lid] = append(blocks, b)
			m.tag[b] = tag
		case 4: // delete a list's head block
			lid, ok := pickList(step)
			if !ok || len(m.lists[lid]) == 0 {
				return true
			}
			b := m.lists[lid][0]
			if l.DeleteBlock(b, lid, ld.NilBlock) != nil {
				return false
			}
			m.lists[lid] = m.lists[lid][1:]
			delete(m.tag, b)
		case 5: // rewrite a block
			lid, ok := pickList(step / 2)
			if !ok || len(m.lists[lid]) == 0 {
				return true
			}
			b := m.lists[lid][len(m.lists[lid])/2]
			if l.Write(b, content) != nil {
				return false
			}
			m.tag[b] = tag
		case 6: // delete a whole list
			if len(m.order) < 3 {
				return true
			}
			lid := m.order[len(m.order)-1]
			if l.DeleteList(lid, ld.NilList) != nil {
				return false
			}
			for _, b := range m.lists[lid] {
				delete(m.tag, b)
			}
			delete(m.lists, lid)
			m.order = m.order[:len(m.order)-1]
		case 7: // move a run of two blocks to the head of another list
			if len(m.order) < 2 {
				return true
			}
			src := m.order[step%len(m.order)]
			dst := m.order[(step+1)%len(m.order)]
			if src == dst || len(m.lists[src]) < 3 {
				return true
			}
			run := m.lists[src][0:2]
			if l.MoveBlocks(run[0], run[1], src, dst, ld.NilBlock, ld.NilBlock) != nil {
				return false
			}
			m.lists[src] = append([]ld.BlockID(nil), m.lists[src][2:]...)
			m.lists[dst] = append(append([]ld.BlockID(nil), run...), m.lists[dst]...)
		case 8: // move a list to the front of the list of lists
			if len(m.order) < 2 {
				return true
			}
			lid := m.order[len(m.order)-1]
			if l.MoveList(lid, ld.NilList, ld.NilList) != nil {
				return false
			}
			m.order = append([]ld.ListID{lid}, m.order[:len(m.order)-1]...)
		case 9: // swap the contents of two blocks
			lid, ok := pickList(step)
			if !ok || len(m.lists[lid]) < 2 {
				return true
			}
			a, b := m.lists[lid][0], m.lists[lid][1]
			if l.SwapContents(a, b) != nil {
				return false
			}
			m.tag[a], m.tag[b] = m.tag[b], m.tag[a]
		case 10: // churn: delete then recreate under the same list
			lid, ok := pickList(step)
			if !ok || len(m.lists[lid]) == 0 {
				return true
			}
			b := m.lists[lid][0]
			if l.DeleteBlock(b, lid, ld.NilBlock) != nil {
				return false
			}
			m.lists[lid] = m.lists[lid][1:]
			delete(m.tag, b)
			nb, err := l.NewBlock(lid, ld.NilBlock)
			if err != nil {
				return false
			}
			if l.Write(nb, content) != nil {
				return false
			}
			m.lists[lid] = append([]ld.BlockID{nb}, m.lists[lid]...)
			m.tag[nb] = tag
		}
		return true
	}()
	if !ok {
		return false
	}
	return l.EndARU() == nil
}

func TestModelLockstepCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	o := testOptions()
	const steps = 120
	const flushEvery = 8

	// Reference run: per-step model snapshots and flush sector marks.
	models := make([]string, 0, steps+1)
	build := func(d *disk.Disk, marks *[]int64, stops *[]int) *LLD {
		l, err := Open(d, o)
		if err != nil {
			t.Fatal(err)
		}
		m := &msModel{lists: make(map[ld.ListID][]ld.BlockID), tag: make(map[ld.BlockID]byte)}
		if models == nil {
			// crash run: models already built
		}
		for s := 0; s < steps; s++ {
			if !msOp(l, m, s) {
				break
			}
			if marks != nil {
				models = append(models, m.canon())
			}
			if s%flushEvery == flushEvery-1 {
				if l.Flush(ld.FailPower) != nil {
					break
				}
				if marks != nil {
					*marks = append(*marks, d.Stats().SectorsWritten)
					*stops = append(*stops, len(models)) // ops acknowledged so far
				}
			}
		}
		return l
	}

	ref := disk.New(disk.DefaultConfig(8 << 20))
	if err := Format(ref, o); err != nil {
		t.Fatal(err)
	}
	ref.ResetStats()
	var marks []int64
	var ackedAt []int
	l := build(ref, &marks, &ackedAt)
	if err := l.Flush(ld.FailPower); err != nil {
		t.Fatal(err)
	}
	marks = append(marks, ref.Stats().SectorsWritten)
	ackedAt = append(ackedAt, len(models))
	total := ref.Stats().SectorsWritten
	if err := l.Shutdown(false); err != nil {
		t.Fatal(err)
	}

	const stride = 5
	for k := int64(1); k <= total; k += stride {
		d := disk.New(disk.DefaultConfig(8 << 20))
		if err := Format(d, o); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		d.InjectCrashAfterSectors(k)
		lc := build(d, nil, nil)
		_ = lc.Shutdown(false)
		d.ClearCrash()

		lr, err := Open(d, o)
		if err != nil {
			t.Fatalf("k=%d: recovery: %v", k, err)
		}
		if viol := lr.CheckInvariants(); len(viol) != 0 {
			t.Fatalf("k=%d: invariants: %v", k, viol)
		}
		got := canonLD(t, lr)

		// Acknowledged floor: ops covered by the last flush at or before k.
		floor := 0
		for i, mk := range marks {
			if mk <= k {
				floor = ackedAt[i]
			}
		}
		matched := -1
		for i := floor - 1; i < len(models); i++ {
			if i < 0 {
				if got == "" {
					matched = 0
					break
				}
				continue
			}
			if got == models[i] {
				matched = i + 1
				break
			}
		}
		if matched < 0 {
			t.Fatalf("k=%d: recovered state matches no op prefix >= %d ops\ngot:\n%s\nfloor model:\n%s",
				k, floor, got, models[max(floor-1, 0)])
		}
		if err := lr.Shutdown(false); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("swept %d crash points over %d sectors, %d ops modeled", (total+stride-1)/stride, total, len(models))
}
