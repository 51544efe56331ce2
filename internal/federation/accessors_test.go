package federation

import (
	"context"
	"testing"
	"time"

	"cohera/internal/storage"
)

func TestOptimizerNamesAndSiteCounters(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	if NewAgoric().Name() != "agoric" {
		t.Error("agoric name")
	}
	if NewCentralized(fed).Name() != "centralized" {
		t.Error("centralized name")
	}
	// Exercise the counters through a costed query.
	s, err := fed.Site("east-1")
	if err != nil {
		t.Fatal(err)
	}
	s.SetCost(CostModel{Latency: 100 * time.Microsecond})
	if _, err := fed.Query(context.Background(), "SELECT sku FROM parts WHERE region = 'east'"); err != nil {
		t.Fatal(err)
	}
	if s.Served() == 0 || s.BusyTime() == 0 {
		t.Errorf("counters: served=%d busy=%v", s.Served(), s.BusyTime())
	}
	s.ResetCounters()
	if s.Served() != 0 || s.BusyTime() != 0 {
		t.Error("ResetCounters did not clear")
	}
}

// TestQuerySourcePushdownProjection exercises a site subquery with
// projected columns.
func TestQuerySourcePushdownProjection(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	// Projection through a stored fragment (SubQueryStream cols path).
	s, _ := fed.Site("east-1")
	st, err := s.SubQueryStream(context.Background(), "parts", nil, []string{"sku", "price"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	cols := st.Columns()
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "sku" {
		t.Errorf("projected columns = %v", cols)
	}
	if len(rows) != 2 || len(rows[0]) != 2 {
		t.Errorf("projected rows = %v", rows)
	}
}
