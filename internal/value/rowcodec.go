package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The binary row codec: one compact, self-delimiting encoding of a row
// of Values, shared by every layer that moves rows as bytes.
//
//	row   := uvarint(ncols) value*
//	value := kind-byte payload
//
// Payloads by kind:
//
//	NULL      (none)
//	BOOLEAN   one byte, 0 or 1
//	INTEGER   zig-zag varint
//	FLOAT     8 bytes, little-endian IEEE-754 bits (NaN payloads survive)
//	TEXT      uvarint(len) bytes
//	MONEY     zig-zag varint minor units, uvarint(len) currency code
//	TIMESTAMP zig-zag varint UnixNano
//	DURATION  zig-zag varint nanoseconds, uvarint(len) semantics tag
//
// The kind byte is the Kind constant itself. Decoding checks every
// length against the bytes left, so hostile input fails with an error
// wrapping ErrCorruptRow, never a panic or an allocation larger than
// the input.

// ErrCorruptRow reports bytes that are not a well-formed encoded row.
var ErrCorruptRow = errors.New("value: corrupt encoded row")

// AppendRow appends the binary encoding of row to dst and returns the
// extended slice.
func AppendRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendValue(dst, v)
	}
	return dst
}

func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindBool:
		return append(dst, byte(v.n))
	case KindInt, KindTime:
		return binary.AppendVarint(dst, v.n)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		return appendString(dst, v.s)
	case KindMoney, KindDuration:
		return appendString(binary.AppendVarint(dst, v.n), v.s)
	default:
		return dst
	}
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// DecodeRow decodes one row from the front of src and returns it with
// the bytes that follow it. Strings are copied out, so src may be
// reused once DecodeRow returns.
func DecodeRow(src []byte) (row []Value, rest []byte, err error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, src, fmt.Errorf("%w: bad column count", ErrCorruptRow)
	}
	src = src[k:]
	// Every value takes at least its kind byte, so a count beyond the
	// bytes left is a lie; refusing it here bounds the allocation.
	if n > uint64(len(src)) {
		return nil, src, fmt.Errorf("%w: %d columns claimed, %d bytes left", ErrCorruptRow, n, len(src))
	}
	row = make([]Value, n)
	for i := range row {
		if row[i], src, err = decodeValue(src); err != nil {
			return nil, src, fmt.Errorf("column %d: %w", i, err)
		}
	}
	return row, src, nil
}

func decodeValue(src []byte) (Value, []byte, error) {
	if len(src) == 0 {
		return Null, src, fmt.Errorf("%w: missing kind byte", ErrCorruptRow)
	}
	v := Value{kind: Kind(src[0])}
	src = src[1:]
	var err error
	switch v.kind {
	case KindNull:
	case KindBool:
		if len(src) == 0 || src[0] > 1 {
			return Null, src, fmt.Errorf("%w: bad boolean", ErrCorruptRow)
		}
		v.n, src = int64(src[0]), src[1:]
	case KindInt, KindTime:
		v.n, src, err = decodeVarint(src)
	case KindFloat:
		if len(src) < 8 {
			return Null, src, fmt.Errorf("%w: short float", ErrCorruptRow)
		}
		v.f, src = math.Float64frombits(binary.LittleEndian.Uint64(src)), src[8:]
	case KindString:
		v.s, src, err = decodeString(src)
	case KindMoney, KindDuration:
		if v.n, src, err = decodeVarint(src); err == nil {
			v.s, src, err = decodeString(src)
		}
	default:
		return Null, src, fmt.Errorf("%w: unknown kind byte %d", ErrCorruptRow, byte(v.kind))
	}
	if err != nil {
		return Null, src, err
	}
	return v, src, nil
}

func decodeVarint(src []byte) (int64, []byte, error) {
	n, k := binary.Varint(src)
	if k <= 0 {
		return 0, src, fmt.Errorf("%w: bad varint", ErrCorruptRow)
	}
	return n, src[k:], nil
}

func decodeString(src []byte) (string, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", src, fmt.Errorf("%w: bad string length", ErrCorruptRow)
	}
	src = src[k:]
	if n > uint64(len(src)) {
		return "", src, fmt.Errorf("%w: string of %d bytes, %d left", ErrCorruptRow, n, len(src))
	}
	return string(src[:n]), src[n:], nil
}
