package main

import (
	"sync"
	"testing"
)

// fakeClock advances only when the test says so.
func fakeTracer() (*tracer, *int64) {
	tr := newTracer()
	now := new(int64)
	tr.clock = func() int64 { return *now }
	tr.enabled.Store(true)
	return tr, now
}

func TestSpanSelfTimeNested(t *testing.T) {
	tr, now := fakeTracer()
	th := tr.newThread("t")
	// fs.create [0,100) ⊃ lld.write [10,40) ⊃ dev.write [20,30), then a
	// second child lld.read [50,60).
	th.begin(spFsCreate)
	*now = 10
	th.begin(spLLDWrite)
	*now = 20
	th.begin(spDevWrite)
	*now = 30
	th.end()
	*now = 40
	th.end()
	*now = 50
	th.begin(spLLDRead)
	*now = 60
	th.end()
	*now = 100
	th.end()

	tt := tr.collect()
	for _, c := range []struct {
		k         spanKind
		dur, self int64
	}{{spFsCreate, 100, 60}, {spLLDWrite, 30, 20}, {spDevWrite, 10, 10}, {spLLDRead, 10, 10}} {
		s := tt.fg[c.k]
		if s.count != 1 || s.dur != c.dur || s.self != c.self {
			t.Errorf("%s: count %d dur %d self %d; want 1 %d %d", spanNames[c.k], s.count, s.dur, s.self, c.dur, c.self)
		}
	}
	if again := tr.collect(); again.fg[spFsCreate].count != 0 {
		t.Error("collect did not clear the sums")
	}
}

func TestParentlessSpansGoToBackground(t *testing.T) {
	tr, now := fakeTracer()
	th := tr.newThread("owner")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a goroutine the benchmark owns: foreground, nested
		defer wg.Done()
		th.adopt()
		if tr.current() != th {
			t.Error("adopted goroutine does not find its thread")
		}
		th.begin(spLLDWrite)
		t2, s := tr.enter(spDevWrite)
		tr.exit(t2, spDevWrite, s)
		th.end()
	}()
	wg.Wait()
	wg.Add(1)
	go func() { // one it does not: the seal flusher, say
		defer wg.Done()
		if tr.current() != nil {
			t.Error("unowned goroutine found a thread")
		}
		t2, s := tr.enter(spDevWrite)
		*now += 7
		tr.exit(t2, spDevWrite, s)
	}()
	wg.Wait()
	tt := tr.collect()
	if tt.fg[spDevWrite].count != 1 || tt.bg[spDevWrite].count != 1 || tt.bg[spDevWrite].dur != 7 {
		t.Errorf("fg %+v bg %+v", tt.fg[spDevWrite], tt.bg[spDevWrite])
	}
	if tt.all(spDevWrite).count != 2 {
		t.Error("all() must add foreground and background")
	}
}

func TestSampledOpsKeepTheirTree(t *testing.T) {
	tr, _ := fakeTracer()
	client := tr.newThread("client")
	session := tr.newThread("session")
	session.peer = client
	for i := 0; i < 2*sampleEvery; i++ {
		client.begin(spNetRead)
		session.begin(spNetServer) // the request arrives while the client waits
		session.begin(spLLDRead)
		session.end()
		session.end()
		client.end()
	}
	if len(client.kept) != 2 || len(session.kept) != 4 {
		t.Fatalf("kept %d client and %d session spans, want 2 and 4", len(client.kept), len(session.kept))
	}
	root := client.kept[0]
	var server, read spanRec
	for _, s := range session.kept {
		if s.parent == root.id {
			server = s
		}
	}
	for _, s := range session.kept {
		if s.parent == server.id && server.id != 0 {
			read = s
		}
	}
	if server.kind != spNetServer || read.kind != spLLDRead {
		t.Errorf("tree is not netld.read → netld.server → lld.read: %+v %+v %+v", root, server, read)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr, _ := fakeTracer()
	tr.enabled.Store(false)
	th := tr.newThread("t")
	th.begin(spLLDRead)
	th.end()
	t2, s := tr.enter(spDevRead)
	tr.exit(t2, spDevRead, s)
	var none *thread // the untraced run's clients
	none.begin(spLLDRead)
	none.end()
	tt := tr.collect()
	if tt.fg[spLLDRead].count+tt.all(spDevRead).count != 0 {
		t.Error("spans recorded while disabled")
	}
}
