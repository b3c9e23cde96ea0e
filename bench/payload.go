package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Every buffer the benchmark writes identifies itself: a 24-byte stamp
// (magic, seed, owner, index, version, check) opens it and is repeated at
// its end, and the bytes between come from one of nPatterns pre-built
// random patterns chosen by index and version. A read is correct only
// when the stamp names exactly the expected (owner, index, version), the
// trailing copy agrees, and every pattern byte matches.

const (
	stampLen  = 24
	stampSeal = 0x4c44424e // "LDBN"
	nPatterns = 16
)

// stamper makes and checks payloads of one size.
type stamper struct {
	seed uint32
	size int
	pats [nPatterns][]byte
	// bufs are what writes are handed: pattern bytes already in place, so
	// stamping touches 48 bytes.
	bufs [nPatterns][]byte
}

func newStamper(seed int64, size int) *stamper {
	s := &stamper{seed: uint32(seed), size: size}
	rng := rand.New(rand.NewSource(seed ^ int64(size)<<32))
	for i := range s.pats {
		s.pats[i] = make([]byte, size)
		rng.Read(s.pats[i])
		s.bufs[i] = append([]byte(nil), s.pats[i]...)
	}
	return s
}

func patternOf(index, version uint32) int { return int((index + version*7) % nPatterns) }

func putStamp(p []byte, seed, owner, index, version uint32) {
	binary.LittleEndian.PutUint32(p[0:], stampSeal)
	binary.LittleEndian.PutUint32(p[4:], seed)
	binary.LittleEndian.PutUint32(p[8:], owner)
	binary.LittleEndian.PutUint32(p[12:], index)
	binary.LittleEndian.PutUint32(p[16:], version)
	binary.LittleEndian.PutUint32(p[20:], ^(seed ^ owner ^ index ^ version))
}

// payload returns the buffer stamped (owner, index, version). It is valid
// until the next call that picks the same pattern.
func (s *stamper) payload(owner, index, version uint32) []byte {
	b := s.bufs[patternOf(index, version)]
	putStamp(b, s.seed, owner, index, version)
	putStamp(b[s.size-stampLen:], s.seed, owner, index, version)
	return b
}

// verify reports whether p is exactly the payload stamped (owner, index,
// version) by this stamper.
func (s *stamper) verify(p []byte, owner, index, version uint32) bool {
	if len(p) != s.size {
		return false
	}
	var want [stampLen]byte
	putStamp(want[:], s.seed, owner, index, version)
	end := s.size - stampLen
	return bytes.Equal(p[:stampLen], want[:]) &&
		bytes.Equal(p[end:], want[:]) &&
		bytes.Equal(p[stampLen:end], s.pats[patternOf(index, version)][stampLen:end])
}
