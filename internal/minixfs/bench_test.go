package minixfs

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/lld"
)

// BenchmarkCreateUnlink creates 10,000 empty files in one directory and
// unlinks them, MINIX on LLD with a list per file, as the paper's Table 4
// does with 1-KB files. Virtual disk time is free in wall-clock terms, so
// it measures the CPU the directory and list operations cost; an op is one
// round of 10,000 creates and 10,000 unlinks.
func BenchmarkCreateUnlink(b *testing.B) {
	const files = 10000
	d := disk.New(disk.DefaultConfig(64 << 20))
	opts := lld.DefaultOptions()
	if err := lld.Format(d, opts); err != nil {
		b.Fatal(err)
	}
	l, err := lld.Open(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	be, err := FormatLD(l, 4096, LDConfig{PerFileLists: true})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := Mkfs(be, Config{BlockSize: 4096, NInodes: 2 * files})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("/f%05d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nm := range names {
			f, err := fs.Create(nm)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
		for _, nm := range names {
			if err := fs.Unlink(nm); err != nil {
				b.Fatal(err)
			}
		}
	}
}
