package main

import "testing"

func TestStampVerify(t *testing.T) {
	for _, size := range []int{1024, blockSize, chunkSize, 10240} {
		s := newStamper(7, size)
		p := append([]byte(nil), s.payload(3, 41, 9)...)
		if !s.verify(p, 3, 41, 9) {
			t.Fatalf("size %d: own payload rejected", size)
		}
		for _, c := range []struct {
			what                  string
			owner, index, version uint32
		}{{"owner", 4, 41, 9}, {"index", 3, 42, 9}, {"stale version", 3, 41, 8}, {"future version", 3, 41, 10}} {
			if s.verify(p, c.owner, c.index, c.version) {
				t.Errorf("size %d: accepted as another %s", size, c.what)
			}
		}
		// A payload made under another seed is another run's data.
		if newStamper(8, size).verify(p, 3, 41, 9) {
			t.Errorf("size %d: accepted under another seed", size)
		}
		// Every byte is checked: head stamp, body, tail stamp.
		for _, off := range []int{0, 5, stampLen, size / 2, size - stampLen - 1, size - stampLen, size - 1} {
			p[off] ^= 0x40
			if s.verify(p, 3, 41, 9) {
				t.Errorf("size %d: flipped byte %d not noticed", size, off)
			}
			p[off] ^= 0x40
		}
		if s.verify(p[:size-1], 3, 41, 9) || s.verify(nil, 3, 41, 9) {
			t.Errorf("size %d: short read accepted", size)
		}
	}
}

func TestPayloadBuffersAreReusable(t *testing.T) {
	// Two payloads that pick the same pattern share a buffer; the second
	// stamp must fully replace the first.
	s := newStamper(1, blockSize)
	s.payload(0, 0, 1)
	p := s.payload(0, nPatterns, 1) // same pattern as (0, 0, 1)
	if patternOf(0, 1) != patternOf(nPatterns, 1) {
		t.Fatal("test premise: same pattern")
	}
	if !s.verify(p, 0, nPatterns, 1) || s.verify(p, 0, 0, 1) {
		t.Fatal("restamped buffer does not verify as its new identity only")
	}
}
