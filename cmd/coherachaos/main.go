// Command coherachaos is the executable fault-injection harness for the
// resilience layer: it drives a federation of sites (plus a remote
// daemon reached over HTTP) through seeded fault schedules and asserts
// the robustness invariants the design promises:
//
//   - a SELECT under a dead fragment degrades to partial results with
//     the lost fragment's typed error, and heals when the fault clears;
//   - a transient remote read recovers through retry-with-backoff, with
//     the retry count visible on the daemon's /metrics;
//   - a site's circuit breaker opens under sustained faults, half-opens
//     after its timeout, and closes again once the schedule clears;
//   - federated DML never blind-retries a non-idempotent statement, and
//     never reports a replica in QueryTrace.FragmentSites that did not
//     apply the write;
//   - under a seeded mixed soak, every operation either succeeds,
//     degrades with reported fragments, or fails with a typed error —
//     and every breaker re-closes after the fault schedules end;
//   - the anti-entropy convergence invariant: after a DML-heavy workload
//     over replicas flapping on seeded MTBF/MTTR schedules, the
//     reconciler converges every replica within a bounded recovery
//     window — identical content digests, zero pending write intents
//     (gauge included), with at least one repair done by journal replay
//     — and a replica whose journal is torn is rebuilt by copy-repair
//     from its healthy peer;
//   - the overload invariant (-overload): at four times measured
//     capacity an admission-gated federation sheds excess load with
//     typed Retry-After errors only, keeps admitted p99 inside the
//     SLO, starves no tenant, and returns to shed-free serving once
//     the offered load drops back under the per-tenant rates.
//
// All randomness flows from -seed and all schedule time from manual
// clocks, so a fixed seed reproduces the fault sequence exactly. -smoke
// shrinks the soak for the CI gate (scripts/check.sh); exit status 0
// means every invariant held.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"cohera/internal/fault"
	"cohera/internal/federation"
	"cohera/internal/obs"
	"cohera/internal/remote"
	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

func main() {
	seed := flag.Int64("seed", 42, "seed for fault schedules and jitter")
	smoke := flag.Bool("smoke", false, "short deterministic run for CI (<10s)")
	iters := flag.Int("iters", 400, "soak workload operations (ignored with -smoke)")
	crash := flag.Bool("crash", false, "run only the kill -9 crash-recovery scenario (spawns child processes)")
	overload := flag.Bool("overload", false, "run only the admission-overload scenario (open-loop 4x load, three tenants)")
	crashChild := flag.String("crash-child", "", "internal: crash-scenario child mode (workload|verify)")
	crashDir := flag.String("crash-dir", "", "internal: crash-scenario state directory")
	flag.Parse()

	if *crashChild != "" {
		var err error
		switch *crashChild {
		case "workload":
			err = runCrashWorkload(*crashDir, *seed)
		case "verify":
			err = runCrashVerify(*crashDir, *seed)
		default:
			err = fmt.Errorf("unknown -crash-child mode %q", *crashChild)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "coherachaos: crash-child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *crash {
		if err := scenarioCrash(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "coherachaos: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("coherachaos: crash-recovery invariants held")
		return
	}
	if *overload {
		if err := scenarioOverload(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "coherachaos: FAIL: overload: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("coherachaos: overload invariants held")
		return
	}

	n := *iters
	if *smoke {
		n = 80
	}
	if err := run(*seed, n); err != nil {
		fmt.Fprintf(os.Stderr, "coherachaos: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("coherachaos: all invariants held")
}

func run(seed int64, soakOps int) error {
	steps := []struct {
		name string
		fn   func(int64) error
	}{
		{"degraded-select", scenarioDegradedSelect},
		{"retry-metrics", scenarioRetryMetrics},
		{"breaker-lifecycle", scenarioBreakerLifecycle},
		{"dml-invariants", scenarioDMLInvariants},
		{"convergence", scenarioConvergence},
	}
	for _, s := range steps {
		if err := s.fn(seed); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("coherachaos: %s ok\n", s.name)
	}
	if err := scenarioSoak(seed, soakOps); err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	fmt.Printf("coherachaos: soak ok (%d ops)\n", soakOps)
	return nil
}

// partsDef is the demo global schema shared by every scenario.
func partsDef() *schema.Table {
	return schema.MustTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "price", Kind: value.KindFloat},
		{Name: "region", Kind: value.KindString},
	}, "sku")
}

func partsRow(sku string, price float64, region string) storage.Row {
	return storage.Row{value.NewString(sku), value.NewFloat(price), value.NewString(region)}
}

// testbed is one chaos federation: east fragment on a single site, west
// fragment replicated on two.
type testbed struct {
	fed                *federation.Federation
	east, west1, west2 *federation.Site
}

func newTestbed() (*testbed, error) {
	tb := &testbed{
		fed:   federation.New(federation.NewAgoric()),
		east:  federation.NewSite("east-1"),
		west1: federation.NewSite("west-1"),
		west2: federation.NewSite("west-2"),
	}
	for _, s := range []*federation.Site{tb.east, tb.west1, tb.west2} {
		if err := tb.fed.AddSite(s); err != nil {
			return nil, err
		}
	}
	eastPred, err := sqlparse.ParseExpr("region = 'east'")
	if err != nil {
		return nil, err
	}
	westPred, err := sqlparse.ParseExpr("region = 'west'")
	if err != nil {
		return nil, err
	}
	fragEast := federation.NewFragment("east", eastPred, tb.east)
	fragWest := federation.NewFragment("west", westPred, tb.west1, tb.west2)
	if _, err := tb.fed.DefineTable(partsDef(), fragEast, fragWest); err != nil {
		return nil, err
	}
	if err := tb.fed.LoadFragment("parts", fragEast, []storage.Row{
		partsRow("E1", 3.5, "east"), partsRow("E2", 1.2, "east"),
	}); err != nil {
		return nil, err
	}
	return tb, tb.fed.LoadFragment("parts", fragWest, []storage.Row{
		partsRow("W1", 99.5, "west"), partsRow("W2", 12000, "west"),
	})
}

// scenarioDegradedSelect: a scheduled outage kills the east fragment's
// only replica; with PartialResults on, the federation serves the west
// rows and reports the lost fragment's typed error; after the outage
// window the same query is whole again.
func scenarioDegradedSelect(seed int64) error {
	tb, err := newTestbed()
	if err != nil {
		return err
	}
	tb.fed.PartialResults = true
	ctx := context.Background()

	clock := &fault.ManualClock{}
	sched, err := fault.NewSchedule(fault.Window{Start: 0, End: time.Second})
	if err != nil {
		return err
	}
	inj := fault.New("east-outage", fault.Config{Seed: seed})
	inj.SetSchedule(sched)
	inj.SetElapsed(clock.Elapsed)
	tb.east.SetFaultHook(inj.Inject)

	res, trace, err := tb.fed.QueryTraced(ctx, "SELECT sku FROM parts ORDER BY sku")
	if err != nil {
		return fmt.Errorf("degraded query should still answer: %w", err)
	}
	if !trace.Degraded {
		return fmt.Errorf("trace not marked Degraded under a dead fragment")
	}
	if len(res.Rows) != 2 {
		return fmt.Errorf("degraded rows = %d, want 2 (west only)", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !strings.HasPrefix(r[0].Str(), "W") {
			return fmt.Errorf("row %v leaked from the dead fragment", r)
		}
	}
	fe, ok := trace.FragmentErrors["parts/east"]
	if !ok {
		return fmt.Errorf("FragmentErrors missing parts/east: %v", trace.FragmentErrors)
	}
	if !errors.Is(fe, federation.ErrNoReplica) || !errors.Is(fe, fault.ErrInjected) {
		return fmt.Errorf("fragment error lost its types: %v", fe)
	}

	// The outage window ends; the next query is whole.
	clock.Advance(2 * time.Second)
	res, trace, err = tb.fed.QueryTraced(ctx, "SELECT sku FROM parts")
	if err != nil || trace.Degraded || len(res.Rows) != 4 {
		return fmt.Errorf("after outage clears: rows=%d degraded=%v err=%v", len(res.Rows), trace.Degraded, err)
	}
	return nil
}

// scenarioRetryMetrics: a remote daemon behind a faulty transport; the
// client's retry policy recovers the read, and the daemon's /metrics
// shows the retries.
func scenarioRetryMetrics(seed int64) error {
	srv := remote.NewServer()
	tbl := storage.NewTable(partsDef())
	if _, err := tbl.Insert(partsRow("R1", 10, "east")); err != nil {
		return err
	}
	srv.PublishTable(tbl, "sku")
	ts := httptest.NewServer(obs.NewHandler(srv))
	defer ts.Close()

	before, err := scrapeCounter(ts.URL, "cohera_remote_client_retries_total")
	if err != nil {
		return err
	}

	inj := fault.New("chaos-transport", fault.Config{FailFirst: 2, Seed: seed})
	cl := remote.Dial(ts.URL, "",
		remote.WithTransport(&fault.RoundTripper{Injector: inj}),
		remote.WithRetry(resilience.Retry{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: seed}))
	ctx := context.Background()
	sources, err := cl.Tables(ctx)
	if err != nil {
		return fmt.Errorf("retry should absorb the injected faults: %w", err)
	}
	if len(sources) != 1 {
		return fmt.Errorf("want 1 source, got %d", len(sources))
	}
	rows, err := sources[0].Fetch(ctx, nil)
	if err != nil || len(rows) != 1 {
		return fmt.Errorf("fetch through recovered transport: rows=%d err=%v", len(rows), err)
	}

	after, err := scrapeCounter(ts.URL, "cohera_remote_client_retries_total")
	if err != nil {
		return err
	}
	if after-before < 2 {
		return fmt.Errorf("/metrics retries advanced by %d, want >= 2", after-before)
	}
	return nil
}

// scrapeCounter reads one unlabelled counter's value off /metrics.
func scrapeCounter(base, name string) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", name, err)
		}
		return v, nil
	}
	return 0, nil // series not created yet: zero
}

// scenarioBreakerLifecycle: sustained faults open a site's breaker, the
// open breaker sheds load without touching the site, and once the flap
// schedule clears the half-open probes close it again.
// probeParts reads one whole "parts" subquery from s, the way a
// breaker probe does: the open runs the site's availability gate, and
// the drained stream's Close settles the breaker.
func probeParts(ctx context.Context, s *federation.Site) error {
	st, err := s.SubQueryStream(ctx, "parts", nil, nil, -1)
	if err != nil {
		return err
	}
	_, err = storage.CollectRows(st)
	return err
}

func scenarioBreakerLifecycle(seed int64) error {
	tb, err := newTestbed()
	if err != nil {
		return err
	}
	ctx := context.Background()
	clock := &fault.ManualClock{}
	br := tb.east.Breaker()
	br.FailureThreshold = 3
	br.OpenTimeout = 2 * time.Second
	br.HalfOpenSuccesses = 2
	br.Clock = clock.Now

	sched, err := fault.NewSchedule(fault.Window{Start: 0, End: 5 * time.Second})
	if err != nil {
		return err
	}
	inj := fault.New("east-flap", fault.Config{Seed: seed})
	inj.SetSchedule(sched)
	inj.SetElapsed(clock.Elapsed)
	tb.east.SetFaultHook(inj.Inject)

	for i := 0; i < 3; i++ {
		if err := probeParts(ctx, tb.east); !errors.Is(err, federation.ErrSiteFailure) {
			return fmt.Errorf("fault %d: want ErrSiteFailure, got %v", i, err)
		}
	}
	if br.State() != resilience.Open {
		return fmt.Errorf("breaker = %v after sustained faults, want open", br.State())
	}
	if err := probeParts(ctx, tb.east); !errors.Is(err, federation.ErrBreakerOpen) {
		return fmt.Errorf("open breaker should reject, got %v", err)
	}
	if score := tb.east.HealthScore(); score != 0 {
		return fmt.Errorf("open site health = %v, want 0", score)
	}

	// Half-open too early: the schedule still has the site down, so the
	// probe fails and the breaker re-opens.
	clock.Advance(3 * time.Second) // past OpenTimeout, inside the outage window
	if err := probeParts(ctx, tb.east); !errors.Is(err, federation.ErrSiteFailure) {
		return fmt.Errorf("probe during outage: want ErrSiteFailure, got %v", err)
	}
	if br.State() != resilience.Open {
		return fmt.Errorf("failed probe should re-open, breaker = %v", br.State())
	}

	// Schedule clears; the next probes close the breaker for good.
	clock.Advance(5 * time.Second)
	for i := 0; i < 2; i++ {
		if err := probeParts(ctx, tb.east); err != nil {
			return fmt.Errorf("probe %d after faults cleared: %v", i, err)
		}
	}
	if br.State() != resilience.Closed {
		return fmt.Errorf("breaker = %v after recovery, want closed", br.State())
	}
	for _, h := range tb.fed.Scoreboard() {
		if h.Score != 1 {
			return fmt.Errorf("scoreboard not fully healthy after recovery: %+v", h)
		}
	}
	return nil
}

// scenarioDMLInvariants: non-idempotent writes are never blind-retried
// (a faulted replica is skipped and reported, not replayed), every site
// reported in FragmentSites really applied the write, and a fully dead
// fragment fails typed instead of losing the write silently.
func scenarioDMLInvariants(seed int64) error {
	tb, err := newTestbed()
	if err != nil {
		return err
	}
	ctx := context.Background()

	priceAt := func(s *federation.Site, sku string) (float64, bool) {
		res, err := s.DB().Exec("SELECT price FROM parts WHERE sku = '" + sku + "'")
		if err != nil || len(res.Rows) == 0 {
			return 0, false
		}
		return res.Rows[0][0].Float(), true
	}
	before1, _ := priceAt(tb.west1, "W1")
	before2, _ := priceAt(tb.west2, "W1")

	// west-2 faults exactly once: after west-1 applied the increment.
	inj := fault.New("west2-once", fault.Config{FailFirst: 1, Seed: seed})
	tb.west2.SetFaultHook(inj.Inject)
	_, dr, trace, err := tb.fed.ExecTraced(ctx, "UPDATE parts SET price = price + 1 WHERE sku = 'W1'")
	if err != nil {
		return fmt.Errorf("best-effort write: %w", err)
	}
	if got, _ := priceAt(tb.west1, "W1"); got != before1+1 {
		return fmt.Errorf("west-1 W1 price = %v, want exactly one increment from %v", got, before1)
	}
	if got, _ := priceAt(tb.west2, "W1"); got != before2 {
		return fmt.Errorf("west-2 W1 price = %v, want untouched %v", got, before2)
	}
	if len(dr.SkippedReplicas) != 1 || !strings.Contains(dr.SkippedReplicas[0], "west-2") {
		return fmt.Errorf("skipped = %v, want the faulted west-2 copy", dr.SkippedReplicas)
	}
	if sites := trace.FragmentSites["parts/west"]; sites != "west-1" {
		return fmt.Errorf("FragmentSites lists %q for west, want only the applier west-1", sites)
	}

	// An INSERT's reported sites must each hold the new row.
	_, _, trace, err = tb.fed.ExecTraced(ctx, "INSERT INTO parts (sku, price, region) VALUES ('W9', 7, 'west')")
	if err != nil {
		return err
	}
	for _, name := range splitSites(trace.FragmentSites["parts/west"]) {
		s, err := tb.fed.Site(name)
		if err != nil {
			return err
		}
		if _, ok := priceAt(s, "W9"); !ok {
			return fmt.Errorf("FragmentSites reports %s but the row is not there", name)
		}
	}

	// Both west replicas down: the write must fail typed, naming the
	// fragment — never silently succeed.
	tb.west1.SetDown(true)
	tb.west2.SetDown(true)
	_, _, _, err = tb.fed.ExecTraced(ctx, "UPDATE parts SET price = 1 WHERE region = 'west'")
	if !errors.Is(err, federation.ErrNoReplica) || !errors.Is(err, federation.ErrSiteDown) {
		return fmt.Errorf("dead fragment write: want ErrNoReplica wrapping ErrSiteDown, got %v", err)
	}
	if !strings.Contains(err.Error(), "west") {
		return fmt.Errorf("dead fragment write error should name the fragment: %v", err)
	}

	// The skipped west-2 increment left a journaled intent. Recover the
	// sites and let the reconciler replay it, so this scenario hands the
	// convergence stage a clean (zero-pending) journal gauge — and
	// proves in passing that the skipped write was deferred, not lost.
	tb.west1.SetDown(false)
	tb.west2.SetDown(false)
	tb.west2.SetFaultHook(nil)
	rep, err := federation.NewReconciler(tb.fed).RunOnce(ctx)
	if err != nil {
		return err
	}
	if rep.Pending != 0 || rep.Replayed < 1 {
		return fmt.Errorf("recovery drain: %+v, want the skipped increment replayed", rep)
	}
	if got, _ := priceAt(tb.west2, "W1"); got != before2+1 {
		return fmt.Errorf("west-2 W1 price = %v after replay, want %v", got, before2+1)
	}
	d1, err := tb.west1.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	d2, err := tb.west2.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	if !d1.Equal(d2) {
		return fmt.Errorf("west digests diverge after replay: %+v vs %+v", d1, d2)
	}
	return nil
}

// scenarioConvergence: the anti-entropy convergence invariant. The west
// replicas flap on seeded MTBF/MTTR schedules under a DML-heavy
// workload, so each misses a different slice of the writes; once the
// flapping stops, a bounded number of repair passes must leave every
// replica with an identical content digest and an empty write-intent
// journal, with at least one repair done by journal replay. A replica
// whose journal is then torn mid-record must be rebuilt by copy-repair
// from its healthy peer — never by replaying the untrustworthy log.
func scenarioConvergence(seed int64) error {
	tb, err := newTestbed()
	if err != nil {
		return err
	}
	// Replica choice must not depend on wall-clock latency (see the soak
	// scenario) and breaker gating has its own scenario: here the flap
	// schedules alone decide availability.
	tb.fed.SetOptimizer(federation.NewCentralized(tb.fed))
	ctx := context.Background()
	for _, s := range []*federation.Site{tb.east, tb.west1, tb.west2} {
		s.Breaker().FailureThreshold = 1 << 30
	}
	ts := httptest.NewServer(obs.NewHandler(http.NotFoundHandler()))
	defer ts.Close()
	replaysBefore, err := scrapeCounter(ts.URL, "cohera_antientropy_replays_total")
	if err != nil {
		return err
	}

	const step = 10 * time.Millisecond
	const ops = 60
	clock := &fault.ManualClock{}
	flap1, err := fault.Flap(12*step, 5*step, ops*step, seed)
	if err != nil {
		return err
	}
	flap2, err := fault.Flap(16*step, 4*step, ops*step, seed+1)
	if err != nil {
		return err
	}

	var failed int
	for i := 0; i < ops; i++ {
		clock.Advance(step)
		e := clock.Elapsed()
		tb.west1.SetDown(flap1.DownAt(e))
		tb.west2.SetDown(flap2.DownAt(e))
		var sql string
		switch i % 3 {
		case 0:
			sql = fmt.Sprintf("INSERT INTO parts (sku, price, region) VALUES ('C%03d', %d, 'west')", i, i)
		case 1:
			sql = fmt.Sprintf("UPDATE parts SET price = %d WHERE sku = 'W1'", i)
		default:
			sql = "UPDATE parts SET price = price + 1 WHERE sku = 'W2'"
		}
		if _, _, err := tb.fed.Exec(ctx, sql); err != nil {
			// Both west replicas down: the statement must fail typed and
			// abandon its intents (verified below by the digest check —
			// an abandoned write replayed anywhere would diverge).
			if !errors.Is(err, federation.ErrNoReplica) {
				return fmt.Errorf("op %d failed untyped: %w", i, err)
			}
			failed++
		}
	}

	// The outage is over; the recovery window is a bounded number of
	// repair passes.
	tb.west1.SetDown(false)
	tb.west2.SetDown(false)
	r := federation.NewReconciler(tb.fed)
	var replayed, copied int
	for pass := 0; pass < 10; pass++ {
		rep, err := r.RunOnce(ctx)
		if err != nil {
			return fmt.Errorf("repair pass %d: %w", pass, err)
		}
		replayed += rep.Replayed
		copied += rep.CopyRepaired
		if rep.Pending == 0 {
			break
		}
	}
	if n := tb.fed.Journal().PendingTotal(); n != 0 {
		return fmt.Errorf("journal not empty within the recovery window: %d pending", n)
	}
	d1, err := tb.west1.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	d2, err := tb.west2.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	if !d1.Equal(d2) {
		return fmt.Errorf("replicas did not converge: %+v vs %+v", d1, d2)
	}
	if replayed < 1 {
		return fmt.Errorf("convergence used no journal replay (replayed=%d copied=%d); the flap should force at least one", replayed, copied)
	}
	replaysAfter, err := scrapeCounter(ts.URL, "cohera_antientropy_replays_total")
	if err != nil {
		return err
	}
	if replaysAfter-replaysBefore < int64(replayed) {
		return fmt.Errorf("replays counter advanced %d, want >= %d", replaysAfter-replaysBefore, replayed)
	}
	// The pending-intents gauge is global: zero here also proves every
	// earlier scenario settled its journals.
	if gauge, err := scrapeCounter(ts.URL, "cohera_antientropy_pending_intents"); err != nil || gauge != 0 {
		return fmt.Errorf("pending-intents gauge = %d after convergence (err=%v), want 0", gauge, err)
	}

	// Copy-repair fallback: a write lands while west-1 is down, then its
	// journal is torn mid-record. The reconciler must refuse to replay
	// the torn log and instead rebuild west-1 from west-2.
	copyBefore, err := scrapeCounter(ts.URL, "cohera_antientropy_copy_repairs_total")
	if err != nil {
		return err
	}
	tb.west1.SetDown(true)
	if _, _, err := tb.fed.Exec(ctx, "UPDATE parts SET price = 123456 WHERE sku = 'W2'"); err != nil {
		return fmt.Errorf("write during final outage: %w", err)
	}
	grp := tb.fed.Journal().Group(tb.west1.Name(), "parts")
	grp.TruncateTail("west", 3)
	if !grp.Lost() {
		return fmt.Errorf("torn journal tail not detected as lost")
	}
	tb.west1.SetDown(false)
	rep, err := r.RunOnce(ctx)
	if err != nil {
		return err
	}
	if rep.Replayed != 0 || rep.CopyRepaired < 1 {
		return fmt.Errorf("torn journal: want copy-repair and no replay, got %+v", rep)
	}
	res, err := tb.west1.DB().Exec("SELECT price FROM parts WHERE sku = 'W2'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Float() != 123456 {
		return fmt.Errorf("copy-repair did not carry the missed write: %v, %v", res, err)
	}
	d1, err = tb.west1.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	d2, err = tb.west2.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	if !d1.Equal(d2) {
		return fmt.Errorf("replicas diverge after copy-repair: %+v vs %+v", d1, d2)
	}
	copyAfter, err := scrapeCounter(ts.URL, "cohera_antientropy_copy_repairs_total")
	if err != nil {
		return err
	}
	if copyAfter-copyBefore < 1 {
		return fmt.Errorf("copy-repairs counter did not advance")
	}
	fmt.Printf("coherachaos: convergence stats: %d replayed, %d copy-repaired, %d typed write failures\n",
		replayed, copied+rep.CopyRepaired, failed)
	return nil
}

// scenarioSoak: a seeded mixed workload over flapping sites. Every
// operation must succeed, degrade with reported fragments, or fail with
// a typed error; reported DML sites must have applied their writes; and
// once the schedules clear, every breaker re-closes.
func scenarioSoak(seed int64, ops int) error {
	tb, err := newTestbed()
	if err != nil {
		return err
	}
	tb.fed.PartialResults = true
	// The agoric optimizer ranks replicas by observed wall-clock latency,
	// which would let scheduling jitter reorder each site's seeded draw
	// stream. The snapshot optimizer ranks equal-cost replicas by name,
	// keeping the whole soak reproducible from -seed alone.
	tb.fed.SetOptimizer(federation.NewCentralized(tb.fed))
	ctx := context.Background()

	const step = 100 * time.Millisecond
	horizon := time.Duration(ops) * step
	clock := &fault.ManualClock{}
	var maxEnd time.Duration
	sites := []*federation.Site{tb.east, tb.west1, tb.west2}
	for i, s := range sites {
		sched, err := fault.Flap(20*step, 6*step, horizon, seed+int64(i))
		if err != nil {
			return err
		}
		if sched.End() > maxEnd {
			maxEnd = sched.End()
		}
		inj := fault.New(s.Name()+"-soak", fault.Config{ErrorRate: 0.05, Seed: seed + int64(i)})
		inj.SetSchedule(sched)
		inj.SetElapsed(clock.Elapsed)
		s.SetFaultHook(inj.Inject)
		br := s.Breaker()
		br.FailureThreshold = 3
		br.OpenTimeout = 4 * step
		br.HalfOpenSuccesses = 1
		br.Clock = clock.Now
	}

	var degraded, failed, wrote int
	for i := 0; i < ops; i++ {
		clock.Advance(step)
		switch i % 5 {
		case 0: // INSERT a fresh row; reported sites must hold it.
			region := "east"
			if i%2 == 0 {
				region = "west"
			}
			sku := fmt.Sprintf("S%04d", i)
			_, _, trace, err := tb.fed.ExecTraced(ctx,
				fmt.Sprintf("INSERT INTO parts (sku, price, region) VALUES ('%s', %d, '%s')", sku, i, region))
			if err != nil {
				if !errors.Is(err, federation.ErrNoReplica) {
					return fmt.Errorf("op %d: insert failed untyped: %w", i, err)
				}
				failed++
				continue
			}
			wrote++
			if err := verifyWritten(tb, trace, sku); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		case 1: // Absolute UPDATE; reported west sites must show the value.
			_, _, trace, err := tb.fed.ExecTraced(ctx,
				fmt.Sprintf("UPDATE parts SET price = %d WHERE sku = 'W1'", i))
			if err != nil {
				if !errors.Is(err, federation.ErrNoReplica) {
					return fmt.Errorf("op %d: update failed untyped: %w", i, err)
				}
				failed++
				continue
			}
			for _, name := range splitSites(trace.FragmentSites["parts/west"]) {
				s, err := tb.fed.Site(name)
				if err != nil {
					return err
				}
				res, err := s.DB().Exec("SELECT price FROM parts WHERE sku = 'W1'")
				if err != nil || len(res.Rows) == 0 || res.Rows[0][0].Float() != float64(i) {
					return fmt.Errorf("op %d: %s reported as written but price is stale", i, name)
				}
			}
		default: // SELECT: succeeds whole or degrades with typed errors.
			q := "SELECT sku FROM parts"
			if i%5 == 3 {
				q = "SELECT sku, price FROM parts WHERE region = 'west'"
			}
			_, trace, err := tb.fed.QueryTraced(ctx, q)
			if err != nil {
				return fmt.Errorf("op %d: partial-mode select must not fail: %w", i, err)
			}
			if trace.Degraded {
				degraded++
				if len(trace.FragmentErrors) == 0 {
					return fmt.Errorf("op %d: degraded without reported fragments", i)
				}
				for k, fe := range trace.FragmentErrors {
					if !errors.Is(fe, federation.ErrNoReplica) {
						return fmt.Errorf("op %d: fragment %s error untyped: %v", i, k, fe)
					}
				}
			}
		}
	}

	// Faults clear: remove every hook, let the breakers' open timeouts
	// lapse, and drive probes until the scoreboard is green.
	for _, s := range sites {
		s.SetFaultHook(nil)
	}
	clock.Advance(maxEnd + 10*step)
	for _, s := range sites {
		for p := 0; p < 3; p++ {
			if err := probeParts(ctx, s); err != nil {
				return fmt.Errorf("recovery probe at %s: %v", s.Name(), err)
			}
		}
	}
	for _, h := range tb.fed.Scoreboard() {
		if h.Breaker != resilience.Closed || h.Score != 1 {
			return fmt.Errorf("breaker at %s did not re-close after faults cleared: %+v", h.Site, h)
		}
	}
	res, trace, err := tb.fed.QueryTraced(ctx, "SELECT sku FROM parts")
	if err != nil || trace.Degraded {
		return fmt.Errorf("post-recovery select: err=%v", err)
	}
	if len(res.Rows) < 4 {
		return fmt.Errorf("post-recovery rows = %d, want at least the seed rows", len(res.Rows))
	}
	// Anti-entropy epilogue: replay the writes skipped during the flaps
	// and converge the west replicas.
	r := federation.NewReconciler(tb.fed)
	for pass := 0; pass < 5; pass++ {
		rep, err := r.RunOnce(ctx)
		if err != nil {
			return fmt.Errorf("soak repair pass %d: %w", pass, err)
		}
		if rep.Pending == 0 {
			break
		}
	}
	if n := tb.fed.Journal().PendingTotal(); n != 0 {
		return fmt.Errorf("soak journal not drained: %d pending", n)
	}
	d1, err := tb.west1.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	d2, err := tb.west2.DB().TableDigest("parts")
	if err != nil {
		return err
	}
	if !d1.Equal(d2) {
		return fmt.Errorf("west replicas diverge after soak repair: %+v vs %+v", d1, d2)
	}
	fmt.Printf("coherachaos: soak stats: %d writes applied, %d degraded reads, %d typed write failures\n",
		wrote, degraded, failed)
	return nil
}

// verifyWritten checks every site reported in the insert trace holds sku.
func verifyWritten(tb *testbed, trace *federation.QueryTrace, sku string) error {
	for key, joined := range trace.FragmentSites {
		if !strings.HasPrefix(key, "parts/") {
			continue
		}
		for _, name := range splitSites(joined) {
			s, err := tb.fed.Site(name)
			if err != nil {
				return err
			}
			res, err := s.DB().Exec("SELECT sku FROM parts WHERE sku = '" + sku + "'")
			if err != nil || len(res.Rows) != 1 {
				return fmt.Errorf("%s reported in FragmentSites but did not apply %s", name, sku)
			}
		}
	}
	return nil
}

func splitSites(joined string) []string {
	if joined == "" {
		return nil
	}
	return strings.Split(joined, ",")
}
