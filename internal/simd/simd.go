// Package simd provides the byte-level kernels behind the hot paths
// that remain after the allocation work of earlier iterations: line
// and field scanning in the pipeline sources, FNV-1a key hashing in
// the sharded maps and the interning dictionary, and the JSON
// special-byte scan of the flat-string fast path.
//
// Each primitive has ONE dispatch point (a package function variable)
// and two implementations:
//
//   - portable: SWAR over 8-byte words — plain Go, no unsafe, no
//     build tags, always available. The word loads compile to single
//     MOVs on little-endian targets; the classification tricks
//     (haszero, hasless) are exact at and below the first matching
//     byte, which is the only byte these kernels report.
//   - native: the per-architecture upgrade where one is profitable.
//     On amd64 that is bytes.IndexByte (vectorized in the runtime);
//     primitives with no profitable native form share the SWAR body.
//
// Dispatch is decided once at init: the default is the native table,
// and setting CERFIX_KERNELS=portable forces the SWAR fallback so CI
// (and any debugging session) can exercise both paths on the same
// machine. Both tables are semantically identical — the differential
// suite pins every kernel byte-for-byte against a naive scalar
// reference — so selection can never change results, only speed.
package simd

import (
	"fmt"
	"os"
)

// Kernel table names accepted by Select.
const (
	// KernelPortable names the SWAR fallback table.
	KernelPortable = "portable"
	// KernelNative names the per-architecture table (equal to the
	// portable table on architectures without a native upgrade).
	KernelNative = "native"
)

// table is one complete kernel set. Primitives dispatch through the
// package-level current table; swapping tables is the whole dispatch
// mechanism.
type table struct {
	name      string
	indexByte func(b []byte, c byte) int
	scanJSON  func(b []byte) int
	hash      func(h uint32, s string) uint32
}

var portableTable = table{
	name:      KernelPortable,
	indexByte: indexByteSWAR,
	scanJSON:  scanJSONSWAR,
	hash:      fnv1aString,
}

// nativeTable starts as a copy of the portable table; architecture
// files (native_amd64.go) overwrite the entries where the platform has
// a profitable upgrade and rename the table after the architecture.
var nativeTable = table{
	name:      KernelPortable,
	indexByte: indexByteSWAR,
	scanJSON:  scanJSONSWAR,
	hash:      fnv1aString,
}

var (
	cur      table
	override string
)

func init() {
	override = os.Getenv("CERFIX_KERNELS")
	if override == KernelPortable {
		cur = portableTable
	} else {
		cur = nativeTable
	}
}

// Select switches the process to the named kernel table ("portable" or
// "native"). It exists for tests and benchmarks that need both paths
// in one process; servers pick once at init via CERFIX_KERNELS. Not
// safe to call concurrently with kernel use.
func Select(name string) error {
	switch name {
	case KernelPortable:
		cur = portableTable
	case KernelNative:
		cur = nativeTable
	default:
		return fmt.Errorf("simd: unknown kernel table %q", name)
	}
	return nil
}

// Reset reselects the process default: the portable table when
// CERFIX_KERNELS=portable, else native. Tests that Select their way
// through both tables defer a Reset so the rest of the binary runs
// the configuration under test.
func Reset() {
	if override == KernelPortable {
		cur = portableTable
	} else {
		cur = nativeTable
	}
}

// Active reports which implementation actually runs: the architecture
// name ("amd64") when native kernels are selected and present, else
// "portable".
func Active() string { return cur.name }

// Override reports the CERFIX_KERNELS value the process started with
// ("" when unset) so startup logs can say why a path was chosen.
func Override() string { return override }

// IndexByte returns the index of the first occurrence of c in b, or
// -1. Semantics match bytes.IndexByte.
func IndexByte(b []byte, c byte) int { return cur.indexByte(b, c) }

// ScanJSON returns the index of the first byte of b that the JSONL
// flat-string fast path cannot copy verbatim: a double quote, a
// backslash, a control byte (< 0x20) or a non-ASCII byte (>= 0x80).
// Returns -1 when every byte is a plain ASCII string byte. The caller
// inspects the reported byte: a quote ends the string, a high byte
// starts a UTF-8 rune to validate, anything else falls back to
// encoding/json.
func ScanJSON(b []byte) int { return cur.scanJSON(b) }

// fnvOffset and fnvPrime are the standard 32-bit FNV-1a parameters,
// shared with the scalar references so every implementation hashes
// identically.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// Hash returns the 32-bit FNV-1a hash of s. The wide implementation
// loads 8 bytes per step and applies the 8 mix steps from the loaded
// word, which is bit-identical to the byte-at-a-time definition (the
// mix chain is inherently sequential; only the loads widen).
func Hash(s string) uint32 { return cur.hash(fnvOffset, s) }
