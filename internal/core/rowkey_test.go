package core

import (
	"bytes"
	"math"
	"testing"
)

// keyTable returns a table over n columns whose indexes cover every key
// shape: each column alone (unique, and non-unique with the RID suffix),
// and all columns together in reverse order.
func keyTable(n int) *Table {
	s := &Schema{Name: "k", Indexes: []IndexDef{{Name: "none", Columns: []int{n}, Unique: true}}}
	all := make([]int, 0, n)
	for c := 0; c < n; c++ {
		s.Columns = append(s.Columns, Column{Name: string(rune('a' + c%26)), Kind: KindInt})
		s.Indexes = append(s.Indexes,
			IndexDef{Name: "u", Columns: []int{c}, Unique: true},
			IndexDef{Name: "d", Columns: []int{c}})
		all = append([]int{c}, all...)
	}
	if n > 0 {
		s.Indexes = append(s.Indexes, IndexDef{Name: "all", Columns: all})
	}
	return &Table{Schema: s}
}

// checkRowKeys asserts that rowKeys accepts exactly what DecodeRowPrefix
// accepts and, on accepted input, builds the same keys as the decoded row.
func checkRowKeys(t *testing.T, data []byte) {
	row, _, derr := DecodeRowPrefix(data)
	var rk rowKeys
	perr := rk.parse(data)
	if (derr == nil) != (perr == nil) {
		t.Fatalf("DecodeRowPrefix err %v, rowKeys.parse err %v on %x", derr, perr, data)
	}
	if derr != nil {
		return
	}
	if len(rk.cols) != len(row) {
		t.Fatalf("parsed %d columns, decoded %d", len(rk.cols), len(row))
	}
	if len(row) > 64 {
		return // key checks over the first columns would repeat themselves
	}
	tbl := keyTable(len(row))
	const rid = RID(0x0102030405060708)
	for ix := range tbl.Schema.Indexes {
		want, werr := tbl.indexKeyAppend(nil, ix, row, rid)
		got, gerr := rk.indexKey(tbl, ix, rid)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("index %d: decoded err %v, encoded err %v", ix, werr, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("index %d of %v: encoded-row key %x, decoded-row key %x", ix, row, got, want)
		}
	}
}

func FuzzDecodeRowPrefix(f *testing.F) {
	seeds := append([]Row{
		{F(math.Copysign(0, -1)), F(-1e300), F(math.Inf(-1)), F(math.NaN())},
		{S("a\x00b"), B([]byte{0, 0, 0xFF, 0}), S("\x00")},
		{Null, Null},
		{I(-42), S("mixed"), F(-0.5), B(nil), Null},
	}, codecRows...)
	for _, row := range seeds {
		enc := EncodeRow(nil, row)
		f.Add(enc)
		f.Add(append(enc, 0xAB, 0xCD)) // trailing bytes are another row's
		if len(enc) > 1 {
			f.Add(enc[:len(enc)-1])
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRowKeys(t, data)
		// The decoded row never aliases the input buffer.
		row, err := DecodeRow(data)
		if err != nil {
			return
		}
		mine := bytes.Clone(data)
		kept, _ := DecodeRow(mine)
		for i := range mine {
			mine[i] ^= 0xFF
		}
		for i := range row {
			a, b := row[i], kept[i]
			if a.Kind() == KindFloat && math.IsNaN(a.Float()) {
				continue
			}
			if !a.Equal(b) {
				t.Fatalf("column %d changed with its source buffer: %v -> %v", i, a, b)
			}
		}
	})
}

func TestRowKeysReuseAcrossRows(t *testing.T) {
	// One rowKeys over rows of different shapes: no state leaks between
	// rows, and a key handed out stays intact until the next call.
	var rk rowKeys
	tbl := keyTable(3)
	for _, row := range []Row{
		{S("long string value"), I(1), F(2)},
		{I(7), Null, B([]byte{0})},
		{S(""), S("x\x00y"), I(-1)},
	} {
		if err := rk.parse(EncodeRow(nil, row)); err != nil {
			t.Fatal(err)
		}
		for ix := range tbl.Schema.Indexes {
			want, werr := tbl.indexKeyAppend(nil, ix, row, 9)
			got, gerr := rk.indexKey(tbl, ix, 9)
			if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("row %v index %d: got %x/%v want %x/%v", row, ix, got, gerr, want, werr)
			}
		}
	}
}
