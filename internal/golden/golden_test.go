package golden

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteRead: a file written compact or indented reads back as what was
// written, in the layout asked for, newline-terminated.
func TestWriteRead(t *testing.T) {
	type rec struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	in := []rec{{"a", 1}, {"b", 2}}
	for _, c := range []struct{ indent, want string }{
		{"", `[{"name":"a","n":1},{"name":"b","n":2}]` + "\n"},
		{" ", "[\n {\n  \"name\": \"a\",\n  \"n\": 1\n },\n {\n  \"name\": \"b\",\n  \"n\": 2\n }\n]\n"},
	} {
		path := filepath.Join(t.TempDir(), "x.json")
		Write(t, path, in, c.indent)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != c.want {
			t.Errorf("indent %q: wrote %q, want %q", c.indent, data, c.want)
		}
		var out []rec
		Read(t, path, &out)
		if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
			t.Errorf("indent %q: read back %+v, want %+v", c.indent, out, in)
		}
	}
	if *Update {
		t.Error("-update set without being passed")
	}
}

// TestEncodings: Bits is the float's IEEE bits in hex, and FNV is FNV-64a
// over the little-endian words, a float by its bits.
func TestEncodings(t *testing.T) {
	if got := Bits(1); got != "3ff0000000000000" {
		t.Errorf("Bits(1) = %s", got)
	}
	if got := Bits(math.Inf(-1)); got != "fff0000000000000" {
		t.Errorf("Bits(-Inf) = %s", got)
	}
	words := []uint64{7, math.Float64bits(0.5)}
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	want := Bits(math.Float64frombits(h.Sum64()))
	if got := FNV(words); got != want {
		t.Errorf("FNV(words) = %s, want %s", got, want)
	}
	if got := FNV([]float64{math.Float64frombits(7), 0.5}); got != want {
		t.Errorf("FNV(floats) = %s, want %s", got, want)
	}
	if got := FNV([]float64(nil)); got != "cbf29ce484222325" { // the FNV-64a offset basis
		t.Errorf("FNV(nil) = %s, want the offset basis", got)
	}
}
