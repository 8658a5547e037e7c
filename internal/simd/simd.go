// Package simd provides two byte-level kernels for hot paths that
// the standard library does not cover: the JSON special-byte scan of
// the JSONL flat-string fast path, and the FNV-1a string hash of the
// interning dictionary. Plain byte search needs no kernel here:
// bytes.IndexByte is already vectorized in the runtime on every major
// architecture.
//
// Both kernels are SWAR ("SIMD within a register"): 8 bytes per step
// through a uint64, plain Go, no unsafe, no build tags. The JSON
// classifier comes from the classic bit-twiddling identities:
//
//	haszero(v)    = (v - 0x01..01) &^ v & 0x80..80
//	hasless(v, n) = (v - n*0x01..01) &^ v & 0x80..80   (n <= 128)
//
// Both may report false positives in bytes ABOVE (more significant
// than) a genuine match — the borrow of a matching byte's subtraction
// ripples upward — but never below one: a byte with no borrow coming
// in matches iff it genuinely satisfies the predicate. ScanJSON only
// ever reports the FIRST match (TrailingZeros on a little-endian word
// order), which is always genuine. The differential suite in
// simd_test.go pins every kernel against its scalar definition.
package simd

import "math/bits"

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// fnvOffset and fnvPrime are the standard 32-bit FNV-1a parameters.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// load64 assembles the 8 little-endian bytes at k[i:i+8]. The compiler
// recognizes the shift-or chain and emits a single 64-bit load on
// little-endian architectures; big-endian targets pay a byte swap and
// stay correct, because the kernels only depend on "lowest byte ==
// earliest byte", which this construction guarantees everywhere.
func load64[K ~string | ~[]byte](k K, i int) uint64 {
	_ = k[i+7]
	return uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
		uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
}

// ScanJSON returns the index of the first byte of b that the JSONL
// flat-string fast path cannot copy verbatim: a double quote, a
// backslash, a control byte (< 0x20) or a non-ASCII byte (>= 0x80).
// Returns -1 when every byte is a plain ASCII string byte. The caller
// inspects the reported byte: a quote ends the string, a high byte
// starts a UTF-8 rune to validate, anything else falls back to
// encoding/json.
func ScanJSON(b []byte) int {
	i, n := 0, len(b)
	for ; i+8 <= n; i += 8 {
		w := load64(b, i)
		q := w ^ swarOnes*'"'
		e := w ^ swarOnes*'\\'
		m := ((q - swarOnes) &^ q) | // '"'
			((e - swarOnes) &^ e) | // '\\'
			((w - swarOnes*0x20) &^ w) | // < 0x20
			w // >= 0x80
		if m &= swarHighs; m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < n; i++ {
		if c := b[i]; c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			return i
		}
	}
	return -1
}

// Hash returns the 32-bit FNV-1a hash of s. It loads 8 bytes per step
// and applies the 8 mix steps from the loaded word, which is
// bit-identical to the byte-at-a-time definition (the mix chain is
// inherently sequential; only the loads widen).
func Hash(s string) uint32 {
	h := uint32(fnvOffset)
	i, n := 0, len(s)
	for ; i+8 <= n; i += 8 {
		w := load64(s, i)
		h = (h ^ uint32(w&0xff)) * fnvPrime
		h = (h ^ uint32(w>>8&0xff)) * fnvPrime
		h = (h ^ uint32(w>>16&0xff)) * fnvPrime
		h = (h ^ uint32(w>>24&0xff)) * fnvPrime
		h = (h ^ uint32(w>>32&0xff)) * fnvPrime
		h = (h ^ uint32(w>>40&0xff)) * fnvPrime
		h = (h ^ uint32(w>>48&0xff)) * fnvPrime
		h = (h ^ uint32(w>>56)) * fnvPrime
	}
	for ; i < n; i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}
