package imageset

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"64", 64, false},
		{"4K", 4096, false},
		{"4k", 4096, false},
		{"32M", 32 << 20, false},
		{"2G", 2 << 30, false},
		{"2g", 2 << 30, false},
		{"", 0, true},
		{"12X", 0, true},
		{"M", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseSize(%q): err=%v", c.in, err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseSize(%q)=%d want %d", c.in, got, c.want)
		}
	}
}

// A saved set loads back whole. With a file missing, a mirror loads degraded
// only when asked to, the replica attached blank at the others' size, and a
// stripe never does.
func TestLoadMissingFiles(t *testing.T) {
	for _, tc := range []struct {
		name             string
		mirrorN, stripeN int
	}{
		{"mirror", 2, 0},
		{"stripe", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := filepath.Join(t.TempDir(), "d.img")
			set, err := New(4<<20, tc.mirrorN, tc.stripeN)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Save(img); err != nil {
				t.Fatal(err)
			}
			if set.Stripe != nil {
				set.Stripe.Close()
			}
			if !Exists(img, tc.mirrorN, tc.stripeN) || Exists(img, 0, 0) {
				t.Fatal("Exists does not find the set's files and only them")
			}
			if _, err := Load(img, tc.mirrorN, tc.stripeN, false); err != nil {
				t.Fatalf("whole set: %v", err)
			}
			if err := os.Remove(img + ".1"); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(img, tc.mirrorN, tc.stripeN, false); err == nil {
				t.Fatal("loaded a set with a file missing")
			}
			got, err := Load(img, tc.mirrorN, tc.stripeN, true)
			if tc.stripeN > 0 {
				if err == nil || !strings.Contains(err.Error(), "cannot run degraded") {
					t.Fatalf("degraded stripe: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Blank, []int{1}) || got.Disks[1].Capacity() != got.Disks[0].Capacity() {
				t.Fatalf("blank replicas %v, capacities %d and %d", got.Blank, got.Disks[0].Capacity(), got.Disks[1].Capacity())
			}
		})
	}
}
