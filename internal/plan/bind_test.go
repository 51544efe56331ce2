package plan

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// bindCols is FuzzBind's fixed column list: bare and qualified names,
// mixed case, and an ambiguous pair (bare "y" matches p.y and q.y).
var bindCols = []string{"a", "b", "t.c", "price", "T.Tax", "x", "p.y", "q.y", "name", "id"}

// bindSeeds extend exprSeeds with shapes aimed at binding: qualified
// refs, ambiguity, case folding, fallback nodes under binary operators,
// and an unknown column hidden behind a short circuit.
var bindSeeds = []string{
	"t.c = a AND p.y > 1",
	"y = 1",
	"T.TAX * 2 + price",
	"q.y IS NULL OR a / b > 1.5",
	"UPPER(name) = 'X' AND a + b < 3",
	"a > 10 AND nope = 1",
	"a < 10 OR z.a = 1",
	"-(a) BETWEEN b AND price",
	"x IN (a, b, NULL) AND NOT (name LIKE 'v%')",
}

// parseExprCorpus reads the checked-in FuzzParseExpr corpus of the
// parser package, so parser crashers keep seeding the evaluator.
func parseExprCorpus(f *testing.F) []string {
	dir := filepath.Join("..", "sqlparse", "testdata", "fuzz", "FuzzParseExpr")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading parser corpus: %v", err)
	}
	var out []string
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			arg, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
			if err != nil {
				f.Fatalf("corpus file %s: %v", ent.Name(), err)
			}
			out = append(out, s)
		}
	}
	return out
}

// bindRow builds one row over bindCols from fuzz bytes: per column a
// kind selector byte and a payload byte, covering NULL, int, float,
// string, money in two currencies and bool.
func bindRow(data []byte, trial int) []value.Value {
	at := func(i int) byte {
		if len(data) == 0 {
			return byte(i * 7)
		}
		return data[(i+trial*3)%len(data)]
	}
	row := make([]value.Value, len(bindCols))
	for i := range row {
		sel, p := at(2*i), at(2*i+1)
		n := int64(int8(p))
		switch sel % 7 {
		case 0:
			row[i] = value.Null
		case 1:
			row[i] = value.NewInt(n)
		case 2:
			row[i] = value.NewFloat(float64(n) / 4)
		case 3:
			row[i] = value.NewString("v" + strconv.Itoa(int(p%5)))
		case 4:
			row[i] = value.NewMoney(n*25, "USD")
		case 5:
			row[i] = value.NewMoney(n, "EUR")
		default:
			row[i] = value.NewBool(p%2 == 0)
		}
	}
	return row
}

// FuzzBind is the binding oracle: for any parseable expression and any
// row over a fixed column list, the bound closure must agree with Eval
// over a RowEnv — the same kind and bit-identical payload, or the same
// error (same text, same ErrUnknownColumn/ErrAmbiguousColumn class).
// One Bound is reused across rows, as streams reuse it.
func FuzzBind(f *testing.F) {
	seeds := append(append(append([]string(nil), exprSeeds...), bindSeeds...), parseExprCorpus(f)...)
	for _, s := range seeds {
		f.Add(s, []byte{1, 3, 2, 9, 3, 4, 4, 200, 5, 1, 0, 0, 6, 1})
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Skip()
		}
		ev := &Evaluator{}
		bound := ev.Bind(e, bindCols)
		for trial := 0; trial < 4; trial++ {
			row := bindRow(data, trial)
			want, werr := ev.Eval(e, NewRowEnv(bindCols, row))
			got, gerr := bound(row)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q on %v: Eval err=%v, Bind err=%v", src, row, werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("%q on %v: Eval err %q, Bind err %q", src, row, werr, gerr)
				}
				for _, class := range []error{ErrUnknownColumn, ErrAmbiguousColumn} {
					if errors.Is(werr, class) != errors.Is(gerr, class) {
						t.Fatalf("%q: error class differs for %v: Eval %v, Bind %v", src, class, werr, gerr)
					}
				}
				continue
			}
			if want.Kind() != got.Kind() ||
				!bytes.Equal(value.AppendRow(nil, []value.Value{want}), value.AppendRow(nil, []value.Value{got})) {
				t.Fatalf("%q on %v: Eval=%v (%s), Bind=%v (%s)", src, row, want, want.Kind(), got, got.Kind())
			}
		}
	})
}

// TestBindDefersResolutionErrors pins that binding never fails: an
// unresolvable reference errors only when a row reaches it, with the
// text Resolve produces, so a stream that sees no rows (or whose short
// circuit never reaches the reference) reports nothing.
func TestBindDefersResolutionErrors(t *testing.T) {
	ev := &Evaluator{}
	for _, tc := range []struct {
		src   string
		class error
	}{
		{"nope = 1", ErrUnknownColumn},
		{"y = 1", ErrAmbiguousColumn},
		{"z.a = 1", ErrUnknownColumn},
	} {
		e, err := sqlparse.ParseExpr(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		bound := ev.Bind(e, bindCols)
		_, err = bound(bindRow(nil, 0))
		_, want := NewRowEnv(bindCols, bindRow(nil, 0)).Resolve(e.(sqlparse.Binary).Left.(sqlparse.ColumnRef))
		if !errors.Is(err, tc.class) || err.Error() != want.Error() {
			t.Errorf("%s: Bind err = %v, want %v", tc.src, err, want)
		}
	}
	e, err := sqlparse.ParseExpr("a > 10 AND nope = 1")
	if err != nil {
		t.Fatal(err)
	}
	row := bindRow(nil, 0)
	row[0] = value.NewInt(1)
	if v, err := ev.Bind(e, bindCols)(row); err != nil || v.Truthy() {
		t.Fatalf("short-circuited AND = %v, %v; want false, nil", v, err)
	}
}

// TestResolveSlotBareRule checks ResolveSlot's bare-name matching
// against its definition: a bare ref matches the part of a name after
// the name's last dot.
func TestResolveSlotBareRule(t *testing.T) {
	names := []string{"a", "t.a", "x.y.a", "b", "t.b.", "a.b", ".c", "d.", "ab", "t.ab"}
	refs := []string{"a", "b", "c", "d", "", "ab", "b.", "y.a", "t.a", "."}
	for _, ref := range refs {
		for n := 1; n <= len(names); n++ {
			sub := names[len(names)-n:]
			want := -1
			var wantErr error
			for i, name := range sub {
				bare := name
				if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
					bare = name[dot+1:]
				}
				if bare != ref {
					continue
				}
				if want >= 0 {
					wantErr = ErrAmbiguousColumn
					break
				}
				want = i
			}
			if want < 0 && wantErr == nil {
				wantErr = ErrUnknownColumn
			}
			got, err := ResolveSlot(sub, sqlparse.ColumnRef{Column: ref})
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Errorf("ResolveSlot(%q, %q) = %d, %v; want %v", sub, ref, got, err, wantErr)
				}
				continue
			}
			if err != nil || got != want {
				t.Errorf("ResolveSlot(%q, %q) = %d, %v; want %d", sub, ref, got, err, want)
			}
		}
	}
}
