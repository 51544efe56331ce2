package value

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// identical is bit-level identity: unlike Equal it tells NaN payloads
// and -0 from +0 apart, which a lossless codec must preserve.
func identical(a, b Value) bool {
	return a.kind == b.kind && a.n == b.n && a.s == b.s &&
		math.Float64bits(a.f) == math.Float64bits(b.f)
}

// codecEdgeRow holds every Kind at its awkward values.
func codecEdgeRow() []Value {
	return []Value{
		Null,
		NewBool(true), NewBool(false),
		NewInt(0), NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(-1),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8dead_beef0001)),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.Copysign(0, -1)),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(1.5),
		NewString(""), NewString("Größe — 東京 ✓"), NewString("a\x00b\xff"),
		NewMoney(-12345, "eur"), NewMoney(math.MaxInt64, "USD"), NewMoney(0, ""),
		NewTime(time.Date(2001, 5, 21, 9, 30, 0, 123, time.UTC)), NewTime(time.Unix(0, math.MinInt64)),
		Days(2, BusinessDays), NewDuration(-time.Nanosecond, ""), NewDuration(time.Hour, NoSundayDays),
	}
}

func checkRoundTrip(t *testing.T, row []Value) {
	t.Helper()
	enc := AppendRow([]byte("prefix"), row)
	if !bytes.HasPrefix(enc, []byte("prefix")) {
		t.Fatal("AppendRow clobbered dst")
	}
	const trailer = "next"
	got, rest, err := DecodeRow(append(enc[len("prefix"):], trailer...))
	if err != nil {
		t.Fatalf("decode %v: %v", row, err)
	}
	if string(rest) != trailer {
		t.Fatalf("rest = %q, want %q", rest, trailer)
	}
	if len(got) != len(row) {
		t.Fatalf("decoded %d values, want %d", len(got), len(row))
	}
	for i := range row {
		if !identical(got[i], row[i]) {
			t.Fatalf("column %d: decoded %#v, want %#v", i, got[i], row[i])
		}
	}
}

// TestRowCodecRoundTrip pins encode→decode as the identity for every
// Kind, including the values other codecs lose (NaN payloads, -0, the
// int64 extremes, non-UTF-8 text).
func TestRowCodecRoundTrip(t *testing.T) {
	checkRoundTrip(t, codecEdgeRow())
	checkRoundTrip(t, nil)
	for _, v := range codecEdgeRow() {
		checkRoundTrip(t, []Value{v})
	}
}

// TestDecodeRowRejectsCorruption covers the length checks: every
// malformed input fails typed, and a claimed column count larger than
// the bytes left is refused before anything is allocated for it.
func TestDecodeRowRejectsCorruption(t *testing.T) {
	good := AppendRow(nil, codecEdgeRow())
	cases := map[string][]byte{
		"empty":          nil,
		"overlong count": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"huge count":     binary.AppendUvarint(nil, 1<<40),
		"count past end": {3, byte(KindNull), byte(KindNull)},
		"unknown kind":   {1, 0xee},
		"bad bool":       {1, byte(KindBool), 2},
		"short float":    {1, byte(KindFloat), 1, 2, 3},
		"string past end": append([]byte{1, byte(KindString)},
			binary.AppendUvarint(nil, 1<<62)...),
		"cut varint":   {1, byte(KindInt), 0x80},
		"cut currency": {1, byte(KindMoney), 2, 3, 'U', 'S'},
	}
	for cut := 1; cut < len(good); cut += 7 {
		cases[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	for name, in := range cases {
		row, _, err := DecodeRow(in)
		if !errors.Is(err, ErrCorruptRow) {
			t.Errorf("%s: err = %v, want ErrCorruptRow", name, err)
		}
		if row != nil {
			t.Errorf("%s: returned %d values alongside an error", name, len(row))
		}
	}
}

// rowFromBytes deterministically builds a row of arbitrary Values from
// fuzz input, so the round-trip property covers payloads beyond the
// seeds.
func rowFromBytes(data []byte) []Value {
	var row []Value
	for len(data) > 0 {
		k := Kind(data[0] % 8)
		data = data[1:]
		var word [8]byte
		n := copy(word[:], data)
		data = data[n:]
		bits := binary.LittleEndian.Uint64(word[:])
		slen := int(word[0] % 8)
		if slen > len(data) {
			slen = len(data)
		}
		s := string(data[:slen])
		switch k {
		case KindNull:
			row = append(row, Null)
		case KindBool:
			row = append(row, NewBool(bits&1 == 1))
		case KindInt:
			row = append(row, NewInt(int64(bits)))
		case KindFloat:
			row = append(row, NewFloat(math.Float64frombits(bits)))
		case KindString:
			row, data = append(row, NewString(s)), data[slen:]
		case KindMoney:
			row, data = append(row, Value{kind: KindMoney, n: int64(bits), s: s}), data[slen:]
		case KindTime:
			row = append(row, NewTime(time.Unix(0, int64(bits))))
		case KindDuration:
			row, data = append(row, NewDuration(time.Duration(bits), DurationSemantics(s))), data[slen:]
		}
	}
	return row
}

// FuzzRowCodec checks the row codec from both ends. Rows built from the
// input round-trip bit-identically; the raw input, read as an encoded
// row, never panics, never yields more values than it has bytes, and
// when it decodes, re-encoding the result decodes to the same row.
func FuzzRowCodec(f *testing.F) {
	f.Add(AppendRow(nil, codecEdgeRow()))
	f.Add(AppendRow(nil, []Value{NewInt(7), NewString("sku-7"), NewMoney(1999, "USD")}))
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add([]byte{2, byte(KindString), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{1, byte(KindFloat), 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, rowFromBytes(data))

		row, _, err := DecodeRow(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRow) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(row) > len(data) {
			t.Fatalf("%d values from %d bytes", len(row), len(data))
		}
		checkRoundTrip(t, row)
	})
}
