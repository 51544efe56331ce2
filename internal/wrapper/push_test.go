package wrapper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

func erpParts(t *testing.T, n int) (*ERPSource, []int64) {
	t.Helper()
	tbl := storage.NewTable(partsDef())
	var ids []int64
	for i := 0; i < n; i++ {
		id, err := tbl.Insert(storage.Row{
			value.NewString(fmt.Sprintf("P%02d", i)), value.NewString("part"),
			value.NewMoney(int64(100*i), "USD"), value.NewInt(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return NewERPSource("erp", tbl), ids
}

func drainRows(t *testing.T, st storage.RowStream) ([]storage.Row, error) {
	t.Helper()
	defer st.Close()
	var out []storage.Row
	for {
		r, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

func mustExpr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestERPPushStreamAppliesPushdown pins the gateway scan's pushed σ/π/limit:
// the receipt, the projected column names (schema names by index), the
// filtered and projected rows, and the limit cut.
func TestERPPushStreamAppliesPushdown(t *testing.T) {
	src, _ := erpParts(t, 10)
	ctx := context.Background()
	st, applied, err := src.FetchPushStream(ctx, nil, Pushdown{
		Where: mustExpr(t, "qty >= 4 AND sku <> 'P05'"), Cols: []string{"QTY", "sku"}, Limit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != (Applied{Where: true, Cols: true, Limit: true}) {
		t.Fatalf("applied = %+v", applied)
	}
	if got := st.Columns(); !reflect.DeepEqual(got, []string{"qty", "sku"}) {
		t.Fatalf("columns = %v", got)
	}
	rows, err := drainRows(t, st)
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Row{
		{value.NewInt(4), value.NewString("P04")},
		{value.NewInt(6), value.NewString("P06")},
		{value.NewInt(7), value.NewString("P07")},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}

	// Stored rows are untouched by the scan's copies.
	rows[0][0] = value.NewInt(-1)
	if _, r, err := src.Table().GetByKey(value.NewString("P04")); err != nil || r[3].Int() != 4 {
		t.Fatalf("stored row changed through a shipped copy: %v, %v", r, err)
	}

	if _, _, err := src.FetchPushStream(ctx, nil, Pushdown{Cols: []string{"nope"}}); err == nil {
		t.Fatal("unknown pushed column accepted")
	}
}

// TestERPPushStreamEvalErrorIsSticky pins that a pushed predicate that
// fails on a row ends the stream with that error, on every later Next
// too, and that an unknown column fails only when a row reaches it.
func TestERPPushStreamEvalErrorIsSticky(t *testing.T) {
	src, _ := erpParts(t, 3)
	st, _, err := src.FetchPushStream(context.Background(), nil, Pushdown{Where: mustExpr(t, "nope = 1")})
	if err != nil {
		t.Fatalf("binding an unknown column failed at open: %v", err)
	}
	defer st.Close()
	_, err = st.Next()
	if !errors.Is(err, plan.ErrUnknownColumn) {
		t.Fatalf("first Next err = %v, want ErrUnknownColumn", err)
	}
	if _, again := st.Next(); !errors.Is(again, plan.ErrUnknownColumn) {
		t.Fatalf("second Next err = %v, want the same error", again)
	}

	empty := storage.NewTable(partsDef())
	st, _, err = NewERPSource("empty", empty).FetchPushStream(context.Background(), nil, Pushdown{Where: mustExpr(t, "nope = 1")})
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := drainRows(t, st); err != nil || len(rows) != 0 {
		t.Fatalf("empty scan = %v, %v; want clean EOF", rows, err)
	}
}

// TestERPPushStreamSkipsRowsDeletedAfterSnapshot pins that the scan's
// id snapshot does not resurrect rows deleted before the scan reaches
// them.
func TestERPPushStreamSkipsRowsDeletedAfterSnapshot(t *testing.T) {
	src, ids := erpParts(t, 8)
	st, _, err := src.FetchPushStream(context.Background(), nil, Pushdown{
		Where: mustExpr(t, "qty >= 0"), Cols: []string{"sku"},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Next()
	if err != nil || first[0].Str() != "P00" {
		t.Fatalf("first row = %v, %v", first, err)
	}
	for _, i := range []int{1, 4, 7} {
		if err := src.Table().Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := drainRows(t, st)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rest {
		got = append(got, r[0].Str())
	}
	if want := []string{"P02", "P03", "P05", "P06"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after deletes = %v, want %v", got, want)
	}
}

// TestERPPushStreamNeverMixesVersions runs pushed scans while writers
// replace rows through Update and Upsert. Every write stores a row
// whose qty column equals its price amount, so a shipped row mixing an
// old and a new version would break the equality; under -race, a scan
// reading a stored row outside the table's lock while a writer changes
// it would also be reported.
func TestERPPushStreamNeverMixesVersions(t *testing.T) {
	const n = 64
	src, ids := erpParts(t, n)
	tbl := src.Table()
	write := func(i int, v int64) storage.Row {
		return storage.Row{value.NewString(fmt.Sprintf("P%02d", i)), value.NewString("part"),
			value.NewMoney(v, "USD"), value.NewInt(v)}
	}
	for i := 0; i < n; i++ {
		if err := tbl.Update(ids[i], write(i, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(1); !stop.Load(); v++ {
				i := int(v) % n
				var err error
				if w == 0 {
					err = tbl.Update(ids[i], write(i, v))
				} else {
					_, err = tbl.Upsert(write(i, v+1000))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for scan := 0; scan < 50; scan++ {
		st, _, err := src.FetchPushStream(context.Background(), nil, Pushdown{
			Where: mustExpr(t, "qty >= 0"), Cols: []string{"price", "qty"},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainRows(t, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != n {
			t.Fatalf("scan %d shipped %d rows, want %d", scan, len(rows), n)
		}
		for _, r := range rows {
			if amt, _ := r[0].Money(); amt != r[1].Int() {
				t.Fatalf("scan %d shipped a torn row: price %d, qty %d", scan, amt, r[1].Int())
			}
		}
	}
}

// TestERPStreamOpenErrorReturnsNilStream pins that a failed open hands
// back a nil RowStream (callers test it against nil before closing),
// not a typed nil pointer wrapped in a non-nil interface.
func TestERPStreamOpenErrorReturnsNilStream(t *testing.T) {
	src, _ := erpParts(t, 1)
	src.SetLatency(time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := src.FetchStream(ctx, nil)
	if err == nil || st != nil {
		t.Fatalf("FetchStream on a canceled context = %v, %v; want nil, error", st, err)
	}
	pst, _, err := src.FetchPushStream(ctx, nil, Pushdown{Limit: 1})
	if err == nil || pst != nil {
		t.Fatalf("FetchPushStream on a canceled context = %v, %v; want nil, error", pst, err)
	}
}
