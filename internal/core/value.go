// Package core implements the HiEngine storage engine: a log-centric MVCC
// engine built on partitioned indirection arrays (Section 4.1), redo-only
// distributed logging with compute-side persistence (Section 4.2), dataless
// checkpoints with parallel recovery (Section 4.3), epoch-based garbage
// collection and log compaction (Section 4.4), LSM-like persistent ART
// indexes (Section 4.5) and a snapshot-isolation MVCC protocol with early
// commit (Section 5).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Kind enumerates column types.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer.
	KindInt Kind = iota + 1
	// KindFloat is a 64-bit float.
	KindFloat
	// KindString is a variable-length string.
	KindString
	// KindBytes is a variable-length byte string.
	KindBytes
)

// String returns the type name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is one typed column value. The zero Value is NULL.
type Value struct {
	kind Kind // 0 = NULL
	i    int64
	f    float64
	s    string
	b    []byte
}

// Null is the NULL value.
var Null = Value{}

// I wraps an integer.
func I(v int64) Value { return Value{kind: KindInt, i: v} }

// F wraps a float.
func F(v float64) Value { return Value{kind: KindFloat, f: v} }

// S wraps a string.
func S(v string) Value { return Value{kind: KindString, s: v} }

// B wraps a byte slice (not copied).
func B(v []byte) Value { return Value{kind: KindBytes, b: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == 0 }

// Kind returns the value's type (0 for NULL).
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload (0 unless KindInt).
func (v Value) Int() int64 { return v.i }

// Float returns the float payload.
func (v Value) Float() float64 { return v.f }

// Str returns the string payload.
func (v Value) Str() string { return v.s }

// Bytes returns the bytes payload.
func (v Value) Bytes() []byte { return v.b }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case 0:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.i)
	case KindFloat:
		return fmt.Sprintf("%g", v.f)
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.b)
	default:
		return "?"
	}
}

// Equal compares two values for equality (same kind and payload).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case 0:
		return true
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindBytes:
		return string(v.b) == string(o.b)
	}
	return false
}

// Row is one tuple.
type Row = []Value

// ErrRowCorrupt is returned when a stored payload cannot be decoded.
var ErrRowCorrupt = errors.New("core: corrupt row payload")

// EncodeRow serializes a row. The encoding is compact, not
// order-preserving; ordered index keys use EncodeKey.
//
//	row    := nCols uvarint, col*
//	col    := kindByte [payload]
//	int    := zigzag varint
//	float  := 8 bytes little-endian IEEE bits
//	string := uvarint len, bytes
func EncodeRow(buf []byte, row Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = append(buf, byte(v.kind))
		switch v.kind {
		case 0:
		case KindInt:
			buf = binary.AppendVarint(buf, v.i)
		case KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
		case KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.s)))
			buf = append(buf, v.s...)
		case KindBytes:
			buf = binary.AppendUvarint(buf, uint64(len(v.b)))
			buf = append(buf, v.b...)
		}
	}
	return buf
}

// DecodeRow parses an encoded row. String and bytes payloads are copied so
// the result does not alias storage-backed buffers.
func DecodeRow(buf []byte) (Row, error) {
	row, _, err := DecodeRowPrefix(buf)
	return row, err
}

// rowColsFit bounds an encoded row's column count: at most 1<<20 columns,
// and no more than the rest bytes left to hold them (every column takes at
// least its kind byte), so a hostile count cannot size a huge allocation.
func rowColsFit(n uint64, rest int) bool {
	return n <= 1<<20 && n <= uint64(rest)
}

// DecodeRowPrefix parses an encoded row from the front of buf and returns
// the unconsumed remainder, so callers can decode rows packed back to back
// (the wire protocol's result encoding). Payloads are copied as in
// DecodeRow.
func DecodeRowPrefix(buf []byte) (Row, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || !rowColsFit(n, len(buf)-w) {
		return nil, nil, ErrRowCorrupt
	}
	pos := w
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		if pos >= len(buf) {
			return nil, nil, ErrRowCorrupt
		}
		k := Kind(buf[pos])
		pos++
		switch k {
		case 0:
			row = append(row, Null)
		case KindInt:
			v, w := binary.Varint(buf[pos:])
			if w <= 0 {
				return nil, nil, ErrRowCorrupt
			}
			pos += w
			row = append(row, I(v))
		case KindFloat:
			if pos+8 > len(buf) {
				return nil, nil, ErrRowCorrupt
			}
			row = append(row, F(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))))
			pos += 8
		case KindString, KindBytes:
			l, w := binary.Uvarint(buf[pos:])
			if w <= 0 {
				return nil, nil, ErrRowCorrupt
			}
			pos += w
			// Compare in uint64: pos+int(l) would overflow for huge l,
			// letting a hostile length pass the bounds check and panic
			// the allocation below.
			if l > uint64(len(buf)-pos) {
				return nil, nil, ErrRowCorrupt
			}
			// One allocation per column, never aliasing buf.
			if k == KindString {
				row = append(row, S(string(buf[pos:pos+int(l)])))
			} else {
				row = append(row, B(append(make([]byte, 0, l), buf[pos:pos+int(l)]...)))
			}
			pos += int(l)
		default:
			return nil, nil, ErrRowCorrupt
		}
	}
	return row, buf[pos:], nil
}
