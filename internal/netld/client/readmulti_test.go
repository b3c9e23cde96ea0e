package client

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ld"
)

func TestOptionsWithDefaultsIdempotent(t *testing.T) {
	cases := []Options{
		{},
		{Retries: NoRetries},
		{Retries: 7, Backoff: time.Second, MaxBackoff: 3 * time.Second},
	}
	for i, o := range cases {
		once := o.withDefaults()
		twice := once.withDefaults()
		if once != twice {
			t.Fatalf("case %d: withDefaults not idempotent: %+v vs %+v", i, once, twice)
		}
	}
	if got := (Options{Retries: NoRetries}).withDefaults().retries(); got != 0 {
		t.Fatalf("NoRetries resolves to %d retries, want 0", got)
	}
	if got := (Options{}).withDefaults().retries(); got != 3 {
		t.Fatalf("default resolves to %d retries, want 3", got)
	}
}

func TestRetryDelayClampsOverflow(t *testing.T) {
	o := Options{Backoff: 10 * time.Millisecond, MaxBackoff: 2 * time.Second}.withDefaults()
	if d := o.retryDelay(1); d != 10*time.Millisecond {
		t.Fatalf("attempt 1 delay %v", d)
	}
	if d := o.retryDelay(3); d != 40*time.Millisecond {
		t.Fatalf("attempt 3 delay %v", d)
	}
	// Large attempts would shift Backoff past the int64 range; the delay
	// must clamp at MaxBackoff, never go negative or wrap.
	for _, attempt := range []int{9, 40, 63, 64, 100, 1 << 20} {
		if d := o.retryDelay(attempt); d != o.MaxBackoff {
			t.Fatalf("attempt %d delay %v, want clamp %v", attempt, d, o.MaxBackoff)
		}
	}
}

func TestNoRetriesDisablesRetries(t *testing.T) {
	s := newServer(t)
	defer s.Close()
	var dials atomic.Int64
	inner := pipeDial(s)
	dial := func() (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("transport down")
		}
		return inner()
	}
	c, err := New(dial, Options{Retries: NoRetries, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Drop the live connection, so the next op must redial — and the
	// redial fails. With retries disabled the op fails after exactly one
	// attempt.
	c.closeTransport()
	c.shut.Store(false)
	before := dials.Load()
	if _, err := c.Lists(); err == nil {
		t.Fatal("Lists succeeded over a dead transport")
	}
	if got := dials.Load() - before; got != 1 {
		t.Fatalf("%d dial attempts with NoRetries, want 1", got)
	}
}

func TestReadBlocksRoundTrip(t *testing.T) {
	_, c := newPair(t, Options{})
	lid, err := c.NewList(ld.NilList, ld.ListHints{})
	if err != nil {
		t.Fatal(err)
	}
	const nBlocks = 10
	ids := make([]ld.BlockID, nBlocks)
	pred := ld.NilBlock
	for i := range ids {
		b, err := c.NewBlock(lid, pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(b, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
		ids[i], pred = b, b
	}

	// Mix in a missing block; its entry degrades, the rest succeed.
	bs := append([]ld.BlockID{9999}, ids...)
	bufs := make([][]byte, len(bs))
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	res, err := c.ReadBlocks(bs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ld.ErrBadBlock) {
		t.Fatalf("missing block error %v, want ErrBadBlock", res[0].Err)
	}
	for i := 0; i < nBlocks; i++ {
		r := res[i+1]
		want := fmt.Sprintf("payload-%02d", i)
		if r.Err != nil || string(bufs[i+1][:r.N]) != want {
			t.Fatalf("entry %d: %q, %v (want %q)", i, bufs[i+1][:r.N], r.Err, want)
		}
	}

	// The same batch through the ld-level helper must take the client's
	// MultiReadDisk fast path and agree with sequential Reads.
	res2, err := ld.ReadBlocks(c, bs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].N != res2[i].N || (res[i].Err == nil) != (res2[i].Err == nil) {
			t.Fatalf("entry %d: ReadBlocks/ld.ReadBlocks disagree: %+v vs %+v", i, res[i], res2[i])
		}
	}

	// ReadListBlocks resolves the same data from just the list id.
	entries, err := c.ReadListBlocks(lid)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != nBlocks {
		t.Fatalf("%d list entries, want %d", len(entries), nBlocks)
	}
	for i, e := range entries {
		want := fmt.Sprintf("payload-%02d", i)
		if e.Block != ids[i] || e.Err != nil || string(e.Data) != want {
			t.Fatalf("list entry %d: %+v, want block %d data %q", i, e, ids[i], want)
		}
	}
}

func TestReadBlocksArgValidationAndEmpty(t *testing.T) {
	_, c := newPair(t, Options{})
	if _, err := c.ReadBlocks(make([]ld.BlockID, 2), make([][]byte, 1)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	res, err := c.ReadBlocks(nil, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(res))
	}
}
