package simd

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// The whole suite is differential: every kernel is pinned
// byte-for-byte against two oracles across adversarial placements —
// matches at every alignment and word-boundary straddle, classifier
// bytes adjacent to borrow-producing neighbors, empty and sub-word
// inputs. The "portable" subtests use the naive scalar definition
// (ref*), the "native" ones the standard library's own implementation
// of the same function (std*).

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

// stdScanJSON is ScanJSON through bytes.IndexFunc. Every byte >= 0x80
// starts a rune >= utf8.RuneSelf (an invalid one decodes as
// utf8.RuneError), so IndexFunc stops on exactly the same byte.
func stdScanJSON(b []byte) int {
	return bytes.IndexFunc(b, func(r rune) bool {
		return r == '"' || r == '\\' || r < 0x20 || r >= utf8.RuneSelf
	})
}

func stdHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func TestScanJSONDifferential(t *testing.T) {
	for _, o := range []struct {
		name string
		ref  func([]byte) int
	}{{"native", stdScanJSON}, {"portable", refScanJSON}} {
		t.Run(o.name, func(t *testing.T) { testScanJSON(t, o.ref) })
	}
}

func testScanJSON(t *testing.T, oracle func([]byte) int) {
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
			if got, want := ScanJSON(b), oracle(b); got != want {
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
		if got, want := ScanJSON(b), oracle(b); got != want {
			t.Fatalf("trial %d: ScanJSON(%q) = %d, want %d", trial, b, got, want)
		}
	}
}

func TestHashDifferential(t *testing.T) {
	for _, o := range []struct {
		name string
		ref  func(string) uint32
	}{{"native", stdHash}, {"portable", refHash}} {
		t.Run(o.name, func(t *testing.T) { testHash(t, o.ref) })
	}
}

func testHash(t *testing.T, oracle func(string) uint32) {
	// Exhaustive over every length 0..64 (covers every wide/tail
	// split) with fixed content, then randomized contents.
	base := strings.Repeat("The quick brown fox jumps over the lazy dog 0123456789!", 2)
	for n := 0; n <= 64; n++ {
		s := base[:n]
		if got, want := Hash(s), oracle(s); got != want {
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
		if got, want := Hash(string(b)), oracle(string(b)); got != want {
			t.Fatalf("trial %d: Hash = %#x, want %#x", trial, got, want)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	s := strings.Repeat("key-material/", 8)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if Hash(s) == 0 {
			b.Fatal("unexpected zero hash")
		}
	}
}
