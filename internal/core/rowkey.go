package core

import (
	"encoding/binary"
	"fmt"
)

// rowKeys builds index keys straight from an encoded row (EncodeRow's
// format) without decoding it: parse records where each column lies in the
// payload, and indexKey appends the order-preserving encoding of an index's
// columns from those spans. Keys are byte-identical to indexKeyAppend over
// DecodeRow of the same payload, but no Row, string or per-key slice is
// allocated: the spans and the key buffer are reused row after row. Log-
// driven index inserts (the recovery rebuild and a follower applying the
// shipped log) use it; one rowKeys serves one goroutine.
type rowKeys struct {
	p    []byte
	cols []colSpan
	key  []byte
}

// colSpan is one column of a parsed row: its kind, the value of a fixed-
// width column (int64 or IEEE bits), or the [start, end) payload bytes of a
// string or bytes column.
type colSpan struct {
	kind       Kind
	num        uint64
	start, end int
}

// parse records the column spans of the encoded row at the front of p. It
// accepts exactly the inputs DecodeRowPrefix accepts; p must stay unchanged
// while the spans are used.
func (rk *rowKeys) parse(p []byte) error {
	rk.p = p
	rk.cols = rk.cols[:0]
	n, w := binary.Uvarint(p)
	if w <= 0 || !rowColsFit(n, len(p)-w) {
		return ErrRowCorrupt
	}
	pos := w
	for i := uint64(0); i < n; i++ {
		if pos >= len(p) {
			return ErrRowCorrupt
		}
		c := colSpan{kind: Kind(p[pos])}
		pos++
		switch c.kind {
		case 0:
		case KindInt:
			v, w := binary.Varint(p[pos:])
			if w <= 0 {
				return ErrRowCorrupt
			}
			c.num = uint64(v)
			pos += w
		case KindFloat:
			if pos+8 > len(p) {
				return ErrRowCorrupt
			}
			c.num = binary.LittleEndian.Uint64(p[pos:])
			pos += 8
		case KindString, KindBytes:
			l, w := binary.Uvarint(p[pos:])
			if w <= 0 {
				return ErrRowCorrupt
			}
			pos += w
			if l > uint64(len(p)-pos) {
				return ErrRowCorrupt
			}
			c.start, c.end = pos, pos+int(l)
			pos = c.end
		default:
			return ErrRowCorrupt
		}
		rk.cols = append(rk.cols, c)
	}
	return nil
}

// indexKey is Table.indexKeyAppend for the parsed row, into the reused
// buffer: the result is valid until the next call.
func (rk *rowKeys) indexKey(t *Table, idx int, rid RID) ([]byte, error) {
	def := t.Schema.Indexes[idx]
	buf := rk.key[:0]
	for _, ci := range def.Columns {
		if ci >= len(rk.cols) {
			return nil, fmt.Errorf("core: row too short for index %q", def.Name)
		}
		switch c := rk.cols[ci]; c.kind {
		case 0:
			buf = append(buf, keyTagNull)
		case KindInt:
			buf = appendKeyInt(buf, int64(c.num))
		case KindFloat:
			buf = appendKeyFloat(buf, c.num)
		default:
			buf = appendKeyStr(buf, rk.p[c.start:c.end])
		}
	}
	if !def.Unique {
		buf = EncodeRIDSuffix(buf, uint64(rid))
	}
	rk.key = buf
	return buf, nil
}

// insertAll parses the encoded row p and inserts its key into every index
// of t, pointing at rid.
func (rk *rowKeys) insertAll(t *Table, p []byte, rid RID) error {
	if err := rk.parse(p); err != nil {
		return err
	}
	for i, ix := range t.indexes {
		k, err := rk.indexKey(t, i, rid)
		if err != nil {
			return err
		}
		if err := ix.Insert(k, uint64(rid)); err != nil {
			return err
		}
	}
	return nil
}
