package simd

import (
	"math/rand"
	"strings"
	"testing"
)

// The whole suite is differential: every kernel is pinned
// byte-for-byte against its naive scalar definition, under both
// dispatch tables, across adversarial placements — matches at every
// alignment and word-boundary straddle, classifier bytes adjacent to
// borrow-producing neighbors, empty and sub-word inputs.

func refIndexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func refScanJSON(b []byte) int {
	for i, c := range b {
		if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			return i
		}
	}
	return -1
}

func refHash(s string) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

// withTables runs f once per dispatch table, restoring the default.
func withTables(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer Reset()
	for _, name := range []string{KernelPortable, KernelNative} {
		if err := Select(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, f)
	}
}

func TestSelect(t *testing.T) {
	defer Reset()
	if err := Select("avx1024"); err == nil {
		t.Fatal("Select accepted an unknown table")
	}
	if err := Select(KernelPortable); err != nil {
		t.Fatal(err)
	}
	if Active() != KernelPortable {
		t.Fatalf("Active() = %q after selecting portable", Active())
	}
	if err := Select(KernelNative); err != nil {
		t.Fatal(err)
	}
	if Active() == "" {
		t.Fatal("Active() empty for the native table")
	}
}

func TestIndexByteDifferential(t *testing.T) {
	withTables(t, func(t *testing.T) {
		// Exhaustive over short lengths, every needle position, and the
		// borrow-adjacent byte values around each classifier boundary.
		interesting := []byte{0x00, 0x01, 0x1f, 0x20, '"', ',', '\\', '\n', 0x7f, 0x80, 0xff}
		for n := 0; n <= 24; n++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + i%26)
			}
			for _, c := range interesting {
				for pos := 0; pos <= n; pos++ {
					for i := range b {
						b[i] = byte('a' + i%26)
					}
					if pos < n {
						b[pos] = c
					}
					if got, want := IndexByte(b, c), refIndexByte(b, c); got != want {
						t.Fatalf("IndexByte(len=%d, c=%#x at %d) = %d, want %d", n, c, pos, got, want)
					}
				}
			}
		}
		// Randomized, with unaligned subslices so word loads start at
		// every offset.
		rng := rand.New(rand.NewSource(13))
		big := make([]byte, 4096)
		for trial := 0; trial < 2000; trial++ {
			for i := range big {
				big[i] = byte(rng.Intn(256))
			}
			off := rng.Intn(64)
			n := rng.Intn(len(big) - off)
			b := big[off : off+n]
			c := byte(rng.Intn(256))
			if got, want := IndexByte(b, c), refIndexByte(b, c); got != want {
				t.Fatalf("trial %d: IndexByte = %d, want %d", trial, got, want)
			}
		}
	})
}

func TestScanJSONDifferential(t *testing.T) {
	withTables(t, func(t *testing.T) {
		cases := [][]byte{
			nil,
			[]byte(""),
			[]byte("plain ascii with no special bytes at all"),
			[]byte(`quote"inside`),
			[]byte(`esc\ape`),
			[]byte("tab\there"),
			[]byte("ends with quote\""),
			[]byte("\x00leading control"),
			[]byte("exactly8"),
			[]byte("exactly8\""),
			[]byte("seven7s"),
			// Multi-byte UTF-8 straddling the 8-byte word boundary at
			// every offset.
			[]byte("abcdefgé straddle"),
			[]byte("abcdefgh€ straddle"),
			[]byte("abcdefg\xf0\x9f\x98\x80 emoji"),
			[]byte("\xff\xfe invalid"),
			[]byte(strings.Repeat("x", 31) + "\x1f"),
			[]byte(strings.Repeat("x", 32) + "\\"),
		}
		for off := 0; off < 9; off++ {
			pad := []byte(strings.Repeat(".", off))
			for _, c := range cases {
				b := append(append([]byte{}, pad...), c...)
				b = b[off:] // vary the load alignment without changing bytes
				if got, want := ScanJSON(b), refScanJSON(b); got != want {
					t.Fatalf("ScanJSON(%q, off %d) = %d, want %d", b, off, got, want)
				}
			}
		}
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 4000; trial++ {
			n := rng.Intn(80)
			b := make([]byte, n)
			for i := range b {
				// Bias heavily toward plain bytes so specials land at
				// random sparse positions, including none.
				if rng.Intn(12) == 0 {
					b[i] = byte(rng.Intn(256))
				} else {
					b[i] = byte(0x20 + rng.Intn(0x5f))
				}
			}
			if got, want := ScanJSON(b), refScanJSON(b); got != want {
				t.Fatalf("trial %d: ScanJSON(%q) = %d, want %d", trial, b, got, want)
			}
		}
	})
}

func TestHashDifferential(t *testing.T) {
	withTables(t, func(t *testing.T) {
		// Exhaustive over every length 0..64 (covers every wide/tail
		// split) with fixed content, then randomized contents.
		base := strings.Repeat("The quick brown fox jumps over the lazy dog 0123456789!", 2)
		for n := 0; n <= 64; n++ {
			s := base[:n]
			if got, want := Hash(s), refHash(s); got != want {
				t.Fatalf("Hash(len %d) = %#x, want %#x", n, got, want)
			}
		}
		rng := rand.New(rand.NewSource(19))
		for trial := 0; trial < 4000; trial++ {
			n := rng.Intn(100)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			if got, want := Hash(string(b)), refHash(string(b)); got != want {
				t.Fatalf("trial %d: Hash = %#x, want %#x", trial, got, want)
			}
		}
	})
}

func BenchmarkIndexByte(b *testing.B) {
	buf := []byte(strings.Repeat("abcdefghijklmnopqrstuvwxyz012345", 32)) // 1 KiB, no newline
	buf[len(buf)-1] = '\n'
	for _, name := range []string{KernelPortable, KernelNative} {
		b.Run(name, func(b *testing.B) {
			if err := Select(name); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if IndexByte(buf, '\n') != len(buf)-1 {
					b.Fatal("wrong index")
				}
			}
		})
	}
	Reset()
}

func BenchmarkHash(b *testing.B) {
	s := strings.Repeat("key-material/", 8)
	for _, name := range []string{KernelPortable, KernelNative} {
		b.Run(name, func(b *testing.B) {
			if err := Select(name); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(s)))
			for i := 0; i < b.N; i++ {
				if Hash(s) == 0 {
					b.Fatal("unexpected zero hash")
				}
			}
		})
	}
	Reset()
}
