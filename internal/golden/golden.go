// Package golden is what the golden-file tests share: the one -update flag,
// golden JSON files, and the bit-exact encodings they pin floats in.
package golden

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

// Update is -update: the golden tests rewrite their files, not compare.
var Update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

// Write writes v to path as JSON with a trailing newline: indented by
// indent, or compact when indent is empty.
func Write(tb testing.TB, path string, v any, indent string) {
	tb.Helper()
	data, err := json.MarshalIndent(v, "", indent)
	if indent == "" {
		data, err = json.Marshal(v)
	}
	if err != nil {
		tb.Fatal(err)
	} else if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// Read unmarshals the golden file at path into v.
func Read(tb testing.TB, path string, v any) {
	tb.Helper()
	if data, err := os.ReadFile(path); err != nil {
		tb.Fatalf("%v (generate with -update)", err)
	} else if err := json.Unmarshal(data, v); err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
}

// Bits is f's IEEE bits in hex, which survive any JSON number round-trip.
func Bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// FNV is the FNV-64a digest, in hex, of vs as little-endian 64-bit words.
func FNV[V uint64 | float64](vs []V) string {
	h, buf := fnv.New64a(), make([]byte, 0, 8)
	for _, v := range vs {
		w, ok := any(v).(uint64)
		if !ok {
			w = math.Float64bits(any(v).(float64))
		}
		h.Write(binary.LittleEndian.AppendUint64(buf, w))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
