package mdisk

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/disk"
)

func newTestMirror(t *testing.T, n int, capacity int64) (*Mirror, []*disk.Disk) {
	t.Helper()
	raw := make([]*disk.Disk, n)
	kids := make([]disk.Backend, n)
	for i := range kids {
		raw[i] = disk.New(disk.DefaultConfig(capacity))
		kids[i] = raw[i]
	}
	m, err := NewMirror(kids...)
	if err != nil {
		t.Fatalf("NewMirror: %v", err)
	}
	return m, raw
}

// TestMirrorRoundTrip: basic read-after-write, and both replicas hold
// identical bytes after every write.
func TestMirrorRoundTrip(t *testing.T) {
	m, raw := newTestMirror(t, 2, 1<<20)
	ss := int64(m.SectorSize())
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 8*ss)
	chk := make([]byte, 8*ss)
	for i := 0; i < 50; i++ {
		off := rng.Int63n(m.Capacity()/ss-8) * ss
		rng.Read(buf)
		if err := m.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if err := m.ReadAt(chk, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, chk) {
			t.Fatalf("read-after-write mismatch at %d", off)
		}
		for r, d := range raw {
			if err := d.ReadAt(chk, off); err != nil {
				t.Fatalf("replica %d: %v", r, err)
			}
			if !bytes.Equal(buf, chk) {
				t.Fatalf("replica %d diverged at %d", r, off)
			}
		}
	}
}

// TestMirrorDegradedReadHealsUnreadable: a latent fault on one replica
// is read around and healed by rewrite.
func TestMirrorDegradedReadHealsUnreadable(t *testing.T) {
	m, raw := newTestMirror(t, 2, 1<<20)
	ss := int64(m.SectorSize())
	buf := make([]byte, 4*ss)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	raw[0].InjectUnreadable(0, 4)
	chk := make([]byte, 4*ss)
	// Read repeatedly: the rotation guarantees replica 0 is tried first
	// within two attempts, exercising the fallback; the first such read
	// heals the fault (rewriting a bad sector clears it).
	for i := 0; i < 4; i++ {
		if err := m.ReadAt(chk, 0); err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
		if !bytes.Equal(buf, chk) {
			t.Fatalf("degraded read %d returned wrong bytes", i)
		}
	}
	st := m.Stats()
	if st.DegradedReads == 0 || st.Heals == 0 {
		t.Fatalf("stats = %+v, want nonzero DegradedReads and Heals", st)
	}
	// Healed: replica 0 must now serve the range directly.
	if err := raw[0].ReadAt(chk, 0); err != nil {
		t.Fatalf("replica 0 still unreadable after heal: %v", err)
	}
	if !bytes.Equal(buf, chk) {
		t.Fatalf("replica 0 healed with wrong bytes")
	}
}

// TestMirrorHealRewritesOnlyUnreadableSectors: the bytes a plain read
// serves are unchecked, so the heal of a replica that failed to read must
// not touch the sectors it can read — over a large request one of them may
// be the last good copy of something the serving replica has lost.
func TestMirrorHealRewritesOnlyUnreadableSectors(t *testing.T) {
	m, raw := newTestMirror(t, 2, 1<<20)
	ss := int64(m.SectorSize())
	const sectors, unreadable, rotted = 37, 5, 29
	want := make([]byte, sectors*ss)
	rand.New(rand.NewSource(3)).Read(want)
	if err := m.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	raw[0].InjectUnreadable(unreadable, 1)
	raw[1].CorruptRange(rotted*ss, ss, 0x5a)
	chk := make([]byte, sectors*ss)
	for i := 0; i < 2; i++ { // the rotation offers replica 0 first once
		if err := m.ReadAt(chk, 0); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if st := m.Stats(); st.DegradedReads != 1 || st.Heals != 1 {
		t.Fatalf("stats = %+v, want one degraded read and one heal", st)
	}
	if err := raw[0].ReadAt(chk, 0); err != nil {
		t.Fatalf("replica 0 after the heal: %v", err)
	}
	if !bytes.Equal(chk, want) {
		t.Fatal("the heal copied replica 1's rot over replica 0's good sector")
	}
}

// A copy the caller's verify refuses is healed where it differs from the
// accepted copy, not over the whole range: rot in sectors 5, 6 and 29 of a
// 37-sector range costs the rotted leg two writes of three sectors, through
// ReadAtVerified and VerifyReplicas alike, and leaves it equal to the good
// leg.
func TestMirrorHealRewritesOnlyDifferingSectors(t *testing.T) {
	for _, scrub := range []bool{false, true} {
		m, raw := newTestMirror(t, 2, 1<<20)
		ss := int64(m.SectorSize())
		const sectors = 37
		want := make([]byte, sectors*ss)
		rand.New(rand.NewSource(5)).Read(want)
		if err := m.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		raw[1].CorruptRange(5*ss, 2*ss, 0x5a)
		raw[1].CorruptRange(29*ss, ss, 0x5a)
		before := raw[1].Stats()
		sum := crc32.ChecksumIEEE(want)
		verify := func(b []byte) bool { return crc32.ChecksumIEEE(b) == sum }
		chk := make([]byte, sectors*ss)
		healed := 0
		for i := 0; i < 2 && healed == 0; i++ { // the rotation offers leg 1 first once
			var n int
			var err error
			if scrub {
				n, err = m.VerifyReplicas(chk, 0, verify)
			} else {
				n, err = m.ReadAtVerified(chk, 0, verify)
			}
			if err != nil || !bytes.Equal(chk, want) {
				t.Fatalf("scrub=%v: read %d returned %v or unverified bytes", scrub, i, err)
			}
			healed += n
		}
		after := raw[1].Stats()
		if healed != 1 || after.Writes-before.Writes != 2 || after.SectorsWritten-before.SectorsWritten != 3 {
			t.Errorf("scrub=%v: %d heals wrote %d requests of %d sectors to the rotted leg, want 1 heal, 2 requests, 3 sectors",
				scrub, healed, after.Writes-before.Writes, after.SectorsWritten-before.SectorsWritten)
		}
		if err := raw[1].ReadAt(chk, 0); err != nil || !bytes.Equal(chk, want) {
			t.Errorf("scrub=%v: the rotted leg reads %v or differs from the good copy after the heal", scrub, err)
		}
	}
}

// TestMirrorReadAtVerified: silent rot on one replica is detected by the
// caller's verify function, served from the sibling, and healed.
func TestMirrorReadAtVerified(t *testing.T) {
	m, raw := newTestMirror(t, 2, 1<<20)
	ss := int64(m.SectorSize())
	buf := make([]byte, 2*ss)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	want := crc32.ChecksumIEEE(buf)
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	raw[1].CorruptRange(0, 2*ss, 0x5a)
	verify := func(b []byte) bool { return crc32.ChecksumIEEE(b) == want }
	chk := make([]byte, 2*ss)
	totalHealed := 0
	for i := 0; i < 4; i++ {
		healed, err := m.ReadAtVerified(chk, 0, verify)
		if err != nil {
			t.Fatalf("verified read %d: %v", i, err)
		}
		if !bytes.Equal(buf, chk) {
			t.Fatalf("verified read %d returned unverified bytes", i)
		}
		totalHealed += healed
	}
	if totalHealed == 0 {
		t.Fatalf("rotation never hit the rotted replica first; healed = 0")
	}
	// The heal rewrote replica 1 with good bytes.
	if err := raw[1].ReadAt(chk, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, chk) {
		t.Fatalf("replica 1 not healed")
	}
	// When every copy is rotted, the read must refuse, not serve garbage.
	raw[0].CorruptRange(0, 2*ss, 0x5a)
	raw[1].CorruptRange(0, 2*ss, 0x5a)
	if _, err := m.ReadAtVerified(chk, 0, verify); !errors.Is(err, disk.ErrNoValidReplica) {
		t.Fatalf("all-rotted read: %v, want ErrNoValidReplica", err)
	}
}

// TestMirrorVerifyReplicas: the scrub-path primitive checks and heals
// every copy, not just the one a read would pick.
func TestMirrorVerifyReplicas(t *testing.T) {
	m, raw := newTestMirror(t, 3, 1<<20)
	ss := int64(m.SectorSize())
	buf := make([]byte, ss)
	for i := range buf {
		buf[i] = 0xab
	}
	want := crc32.ChecksumIEEE(buf)
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	raw[0].CorruptRange(0, ss, 1)
	raw[2].CorruptRange(0, ss, 2)
	verify := func(b []byte) bool { return crc32.ChecksumIEEE(b) == want }
	chk := make([]byte, ss)
	healed, err := m.VerifyReplicas(chk, 0, verify)
	if err != nil {
		t.Fatal(err)
	}
	if healed != 2 {
		t.Fatalf("healed = %d, want 2", healed)
	}
	if !bytes.Equal(buf, chk) {
		t.Fatalf("VerifyReplicas left unverified bytes in p")
	}
	for r, d := range raw {
		if err := d.ReadAt(chk, 0); err != nil || !bytes.Equal(buf, chk) {
			t.Fatalf("replica %d not healed (err=%v)", r, err)
		}
	}
	// A second pass finds nothing to do.
	if healed, err := m.VerifyReplicas(chk, 0, verify); err != nil || healed != 0 {
		t.Fatalf("second pass: healed=%d err=%v", healed, err)
	}
}

// TestMirrorReplicaCrash: a crashed replica is marked failed, writes and
// reads continue on the survivor, and losing the survivor downs the
// mirror.
func TestMirrorReplicaCrash(t *testing.T) {
	m, raw := newTestMirror(t, 2, 1<<20)
	ss := int64(m.SectorSize())
	buf := make([]byte, ss)
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	raw[0].Crash()
	// Writes fan out, notice the crash, and still succeed on replica 1.
	if err := m.WriteAt(buf, int64(ss)); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if m.State(0) != ReplicaFailed {
		t.Fatalf("replica 0 state = %v, want failed", m.State(0))
	}
	if st := m.Stats(); st.ReplicaFailures != 1 {
		t.Fatalf("ReplicaFailures = %d, want 1", st.ReplicaFailures)
	}
	for i := 0; i < 4; i++ {
		if err := m.ReadAt(buf, 0); err != nil {
			t.Fatalf("degraded read: %v", err)
		}
	}
	raw[1].Crash()
	if err := m.ReadAt(buf, 0); err == nil {
		t.Fatal("read with every replica crashed succeeded")
	}
	if err := m.WriteAt(buf, 0); err == nil {
		t.Fatal("write with every replica crashed succeeded")
	}
}
