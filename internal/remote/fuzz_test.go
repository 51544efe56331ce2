package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"cohera/internal/obs"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// fuzzedDef is the schema the stream decoder fuzz target reads against.
var fuzzedDef = schema.MustTable("fuzzed", []schema.Column{
	{Name: "id", Kind: value.KindInt, NotNull: true},
	{Name: "name", Kind: value.KindString},
}, "id")

// validNDJSONStream is one (id, name) row and the terminator.
const validNDJSONStream = `{"rows":[[{"k":"int","i":1},{"k":"string","s":"a"}]]}` + "\n" + `{"eof":true}` + "\n"

// frame builds one binary frame.
func frame(typ byte, payload []byte) []byte {
	out := append([]byte{typ}, binary.BigEndian.AppendUint32(nil, uint32(len(payload)))...)
	return append(out, payload...)
}

// rowsFrame builds a rows frame from value.AppendRow encodings.
func rowsFrame(rows ...[]value.Value) []byte {
	p := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, r := range rows {
		p = value.AppendRow(p, r)
	}
	return frame(frameRows, p)
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// validFrameStream is validNDJSONStream in binary frames.
var validFrameStream = concat(rowsFrame([]value.Value{value.NewInt(1), value.NewString("a")}), frame(frameEOF, nil))

// fuzzStream wraps a raw response body in a clientStream as
// FetchPushStream would after a 200.
func fuzzStream(body []byte, frames bool) *clientStream {
	ct := ndjsonContentType
	if frames {
		ct = framesContentType
	}
	_, sp := obs.StartSpan(context.Background(), "remote.fetchstream")
	metStreamInflight("client").Add(1)
	return &clientStream{
		def:  fuzzedDef,
		cols: fuzzedDef.ColumnNames(),
		body: io.NopCloser(bytes.NewReader(nil)),
		dec:  newChunkDecoder(bytes.NewReader(body), ct),
		sp:   sp,
	}
}

// TestValidStreamSeeds pins that the fuzz target's valid seeds decode:
// one row, then io.EOF, in both codecs. Seeds that fail before reaching
// row decoding would leave the row path unfuzzed.
func TestValidStreamSeeds(t *testing.T) {
	for name, tc := range map[string]struct {
		body   []byte
		frames bool
	}{
		"ndjson": {[]byte(validNDJSONStream), false},
		"frames": {validFrameStream, true},
	} {
		cs := fuzzStream(tc.body, tc.frames)
		row, err := cs.Next()
		if err != nil {
			t.Fatalf("%s: first Next: %v", name, err)
		}
		if row[0].Int() != 1 || row[1].Str() != "a" {
			t.Fatalf("%s: row = %v", name, row)
		}
		if _, err := cs.Next(); err != io.EOF {
			t.Fatalf("%s: second Next = %v, want io.EOF", name, err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeStream feeds arbitrary bytes to the chunk decoder of either
// codec as if they were a /fetchstream response body. Invariants: the
// decoder never panics, every yielded row has exactly the schema's
// width, the stream always terminates in io.EOF or a typed error
// (never runs forever), the terminal error is sticky, and Close always
// succeeds.
func FuzzDecodeStream(f *testing.F) {
	for _, seed := range []string{
		validNDJSONStream,
		`{"rows":[[{"k":"int","i":1},{"k":"string","s":"a"}]]}` + "\n", // missing terminator
		`{"error":"disk on fire"}` + "\n",
		`{"eof":true}` + "\n",
		"",
		"\n\n\n",
		`{"rows":[[{"k":"int","i":1}]]}` + "\n" + `{"eof":true}` + "\n", // short row
		`{"rows":[[{"k":"money","i":100,"s":"USD"},{"k":"string","s":"x"},{"k":"bool","b":true}]]}` + "\n",
		`{"rows":`, // cut mid-chunk
		`not json at all`,
		`{"rows":[[{"k":"NOSUCHKIND"} ,{"k":"string","s":"a"}]]}` + "\n" + `{"eof":true}` + "\n",
	} {
		f.Add([]byte(seed), false)
	}
	eof := frame(frameEOF, nil)
	oneRow := rowsFrame([]value.Value{value.NewInt(1), value.NewString("a")})
	for _, seed := range [][]byte{
		validFrameStream,
		oneRow, // missing eof frame
		concat([]byte{frameRows}, binary.BigEndian.AppendUint32(nil, maxStreamLine+1), oneRow[frameHeaderLen:]),
		concat(frame('?', []byte("x")), eof),
		concat(frame(frameRows, []byte{1, 2, 0xee, 1}), eof), // unknown value kind
		concat(rowsFrame([]value.Value{value.NewInt(1)}), eof),
		concat(frame(frameAck, []byte(`{"where":true}`)), oneRow, frame(frameErr, []byte("disk on fire"))),
		oneRow[:len(oneRow)-2], // cut mid-frame
	} {
		f.Add(seed, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, frames bool) {
		cs := fuzzStream(data, frames)
		var terminal error
		for i := 0; i < 1<<17; i++ {
			row, err := cs.Next()
			if err != nil {
				terminal = err
				break
			}
			if len(row) != len(cs.cols) {
				t.Fatalf("row width %d, want %d", len(row), len(cs.cols))
			}
		}
		if terminal == nil {
			t.Fatal("stream did not terminate")
		}
		if _, err := cs.Next(); err != terminal && err.Error() != terminal.Error() {
			t.Fatalf("terminal error not sticky: %v then %v", terminal, err)
		}
		if err := cs.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := cs.Next(); !errors.Is(err, storage.ErrStreamClosed) {
			t.Fatalf("Next after Close = %v", err)
		}
	})
}
