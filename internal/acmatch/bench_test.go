package acmatch

import (
	"fmt"
	"testing"
)

// BenchmarkScan measures the software AC-DFA scan rate (the CPU-only NIDS
// bottleneck, §V-B2) across packet sizes, and under lanes the rate of the
// same table walked Lanes records at a time over what a 6 KB DMA batch of
// 512 B packets holds (11 records: two full groups and a short one).
func BenchmarkScan(b *testing.B) {
	patterns := [][]byte{
		[]byte("/etc/passwd"), []byte("cmd.exe"), []byte("SELECT * FROM"),
		[]byte("union select"), []byte("../.."), []byte("xp_cmdshell"),
	}
	m, err := NewMatcher(patterns, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 256, 1024, 1500} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte('a' + i%26)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Scan(data, nil)
			}
		})
	}
	b.Run("lanes/11x512B", func(b *testing.B) {
		recs := make([][]byte, 11)
		for r := range recs {
			recs[r] = make([]byte, 512)
			for i := range recs[r] {
				recs[r][i] = byte('a' + (i+r)%26)
			}
		}
		out := make([]Tally, len(recs))
		b.SetBytes(int64(len(recs) * 512))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ScanLanes(recs, out)
		}
	})
}

func BenchmarkBuild(b *testing.B) {
	patterns := make([][]byte, 64)
	for i := range patterns {
		patterns[i] = []byte(fmt.Sprintf("pattern-%02d-body", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMatcher(patterns, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
