// Package plan implements expression evaluation and predicate analysis
// shared by the local executor (internal/exec), the federated query
// processor (internal/federation) and the semantic cache (internal/cache).
package plan

import (
	"fmt"
	"strings"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Env resolves column references during evaluation.
type Env interface {
	// Resolve returns the value bound to the (optionally qualified)
	// column reference.
	Resolve(ref sqlparse.ColumnRef) (value.Value, error)
}

// RowEnv is the standard Env: parallel slices of binding names and values.
// Names may be bare ("price") or qualified ("p.price"); resolution tries
// the qualified form first, then unique bare match.
type RowEnv struct {
	Names  []string // lowercase, possibly "table.column"
	Values []value.Value
}

// NewRowEnv builds an environment. Names are normalized to lowercase.
func NewRowEnv(names []string, values []value.Value) *RowEnv {
	ln := make([]string, len(names))
	for i, n := range names {
		ln[i] = strings.ToLower(n)
	}
	return &RowEnv{Names: ln, Values: values}
}

// NewRowEnvRaw wraps names that are already lowercase without copying.
// Row-at-a-time executors build the name list once and swap Values per
// row; the per-row ToLower pass of NewRowEnv dominates tight loops.
func NewRowEnvRaw(names []string, values []value.Value) *RowEnv {
	return &RowEnv{Names: names, Values: values}
}

// ErrUnknownColumn is returned when a reference resolves to no binding.
var ErrUnknownColumn = fmt.Errorf("plan: unknown column")

// ErrAmbiguousColumn is returned when a bare reference matches several
// bindings.
var ErrAmbiguousColumn = fmt.Errorf("plan: ambiguous column")

// Resolve implements Env.
func (e *RowEnv) Resolve(ref sqlparse.ColumnRef) (value.Value, error) {
	i, err := ResolveSlot(e.Names, ref)
	if err != nil {
		return value.Null, err
	}
	return e.Values[i], nil
}

// ResolveSlot is the one name-resolution rule: it returns the index of
// ref among names (lowercase, bare or "table.column"). A qualified ref
// matches its exact qualified name; a bare ref matches the one name
// whose column part equals it, and fails as ambiguous when several do.
func ResolveSlot(names []string, ref sqlparse.ColumnRef) (int, error) {
	col := strings.ToLower(ref.Column)
	if ref.Table != "" {
		want := strings.ToLower(ref.Table) + "." + col
		for i, n := range names {
			if n == want {
				return i, nil
			}
		}
		return -1, fmt.Errorf("%w: %s", ErrUnknownColumn, ref)
	}
	// A bare ref matches the part of a name after its last dot; that
	// part never holds a dot, so a dotted bare ref matches nothing.
	found := -1
	if strings.IndexByte(col, '.') < 0 {
		for i, n := range names {
			if n != col && !(len(n) > len(col) && n[len(n)-len(col)-1] == '.' && n[len(n)-len(col):] == col) {
				continue
			}
			if found >= 0 {
				return -1, fmt.Errorf("%w: %s", ErrAmbiguousColumn, ref)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: %s", ErrUnknownColumn, ref)
	}
	return found, nil
}

// TextMatcher evaluates a text-search predicate for the current row.
// The executor installs one backed by the inverted index; contexts without
// text support leave it nil and TextMatch expressions fail.
type TextMatcher func(tm sqlparse.TextMatch, env Env) (bool, error)

// Evaluator evaluates expressions. The zero value works for expressions
// without text predicates.
type Evaluator struct {
	// Text, when non-nil, handles TextMatch predicates.
	Text TextMatcher
	// Funcs adds or overrides scalar functions by uppercase name.
	Funcs map[string]func(args []value.Value) (value.Value, error)
}

// Eval computes the expression under the environment.
func (ev *Evaluator) Eval(e sqlparse.Expr, env Env) (value.Value, error) {
	switch x := e.(type) {
	case sqlparse.Literal:
		return x.Value, nil
	case sqlparse.ColumnRef:
		return env.Resolve(x)
	case sqlparse.Binary:
		return ev.evalBinary(x, env)
	case sqlparse.Not:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		return value.NewBool(!v.Truthy()), nil
	case sqlparse.Neg:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		switch v.Kind() {
		case value.KindInt:
			return value.NewInt(-v.Int()), nil
		case value.KindFloat:
			return value.NewFloat(-v.Float()), nil
		case value.KindNull:
			return value.Null, nil
		case value.KindMoney:
			m, c := v.Money()
			return value.NewMoney(-m, c), nil
		default:
			return value.Null, fmt.Errorf("plan: cannot negate %s", v.Kind())
		}
	case sqlparse.IsNull:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil
	case sqlparse.In:
		return ev.evalIn(x, env)
	case sqlparse.Between:
		return ev.evalBetween(x, env)
	case sqlparse.Like:
		return ev.evalLike(x, env)
	case sqlparse.Call:
		return ev.evalCall(x, env)
	case sqlparse.TextMatch:
		if ev.Text == nil {
			return value.Null, fmt.Errorf("plan: %s predicate unsupported in this context", x.Mode)
		}
		ok, err := ev.Text(x, env)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(ok), nil
	case sqlparse.Star:
		return value.Null, fmt.Errorf("plan: * is not a scalar expression")
	default:
		return value.Null, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func (ev *Evaluator) evalBinary(x sqlparse.Binary, env Env) (value.Value, error) {
	l, err := ev.Eval(x.Left, env)
	if err != nil {
		return value.Null, err
	}
	logical := isLogical(x.Op)
	if logical {
		if out, ok := shortCircuit(x.Op, l); ok {
			return value.NewBool(out), nil
		}
	}
	r, err := ev.Eval(x.Right, env)
	if err != nil {
		return value.Null, err
	}
	switch {
	case logical:
		return logic3(x.Op, l, r), nil
	case isComparison(x.Op):
		return compareOp(x.Op, l, r)
	default:
		return arith(x.Op, l, r)
	}
}

// The binary operator semantics below are shared by Eval and Bind:
// AND/OR with SQL three-valued logic (shortCircuit, then logic3),
// comparisons (compareOp) and arithmetic (arith).

func isLogical(op sqlparse.BinaryOp) bool {
	return op == sqlparse.OpAnd || op == sqlparse.OpOr
}

func isComparison(op sqlparse.BinaryOp) bool {
	switch op {
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		return true
	}
	return false
}

// shortCircuit decides AND/OR from the left operand alone when it can:
// false AND x is false, true OR x is true.
func shortCircuit(op sqlparse.BinaryOp, l value.Value) (out, ok bool) {
	if l.IsNull() || l.Truthy() != (op == sqlparse.OpOr) {
		return false, false
	}
	return op == sqlparse.OpOr, true
}

// logic3 combines AND/OR operands the left one could not decide alone.
func logic3(op sqlparse.BinaryOp, l, r value.Value) value.Value {
	if l.IsNull() || r.IsNull() {
		// unknown AND true = unknown; unknown OR false = unknown
		if op == sqlparse.OpAnd && !r.IsNull() && !r.Truthy() {
			return value.NewBool(false)
		}
		if op == sqlparse.OpOr && !r.IsNull() && r.Truthy() {
			return value.NewBool(true)
		}
		return value.Null
	}
	if op == sqlparse.OpAnd {
		return value.NewBool(l.Truthy() && r.Truthy())
	}
	return value.NewBool(l.Truthy() || r.Truthy())
}

// compareOp evaluates a comparison; NULL on either side is unknown.
func compareOp(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	c, err := compareForEval(l, r)
	if err != nil {
		return value.Null, err
	}
	var out bool
	switch op {
	case sqlparse.OpEq:
		out = c == 0
	case sqlparse.OpNe:
		out = c != 0
	case sqlparse.OpLt:
		out = c < 0
	case sqlparse.OpLe:
		out = c <= 0
	case sqlparse.OpGt:
		out = c > 0
	case sqlparse.OpGe:
		out = c >= 0
	}
	return value.NewBool(out), nil
}

// compareForEval relaxes value.Compare slightly: string-vs-other compares
// via string coercion failing which it errors. Money and numbers stay
// strict so currency bugs surface.
func compareForEval(l, r value.Value) (int, error) {
	if c, err := l.Compare(r); err == nil {
		return c, nil
	} else if l.Kind() == r.Kind() {
		return 0, err
	}
	// Try coercing one side toward the other for mixed literal/text data.
	if l.Kind() == value.KindString {
		if cv, err := value.Coerce(l, r.Kind()); err == nil {
			return cv.Compare(r)
		}
	}
	if r.Kind() == value.KindString {
		if cv, err := value.Coerce(r, l.Kind()); err == nil {
			return l.Compare(cv)
		}
	}
	return l.Compare(r) // surface the original error
}

func arith(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	// String concatenation via +.
	if op == sqlparse.OpAdd && l.Kind() == value.KindString && r.Kind() == value.KindString {
		return value.NewString(l.Str() + r.Str()), nil
	}
	// Money arithmetic: money ± money (same currency), money * scalar.
	if l.Kind() == value.KindMoney || r.Kind() == value.KindMoney {
		return moneyArith(op, l, r)
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt && op != sqlparse.OpDiv {
		a, b := l.Int(), r.Int()
		switch op {
		case sqlparse.OpAdd:
			return value.NewInt(a + b), nil
		case sqlparse.OpSub:
			return value.NewInt(a - b), nil
		case sqlparse.OpMul:
			return value.NewInt(a * b), nil
		}
	}
	if !isNumeric(l) || !isNumeric(r) {
		return value.Null, fmt.Errorf("plan: %s %s %s unsupported", l.Kind(), op, r.Kind())
	}
	a, b := l.Float(), r.Float()
	switch op {
	case sqlparse.OpAdd:
		return value.NewFloat(a + b), nil
	case sqlparse.OpSub:
		return value.NewFloat(a - b), nil
	case sqlparse.OpMul:
		return value.NewFloat(a * b), nil
	case sqlparse.OpDiv:
		if b == 0 {
			return value.Null, fmt.Errorf("plan: division by zero")
		}
		return value.NewFloat(a / b), nil
	default:
		return value.Null, fmt.Errorf("plan: unsupported arithmetic op %s", op)
	}
}

func moneyArith(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	switch {
	case l.Kind() == value.KindMoney && r.Kind() == value.KindMoney:
		la, lc := l.Money()
		ra, rc := r.Money()
		if lc != rc {
			return value.Null, fmt.Errorf("%w: %s vs %s", value.ErrCurrencyMismatch, lc, rc)
		}
		switch op {
		case sqlparse.OpAdd:
			return value.NewMoney(la+ra, lc), nil
		case sqlparse.OpSub:
			return value.NewMoney(la-ra, lc), nil
		}
		return value.Null, fmt.Errorf("plan: money %s money unsupported", op)
	case l.Kind() == value.KindMoney && isNumeric(r):
		la, lc := l.Money()
		switch op {
		case sqlparse.OpMul:
			return value.NewMoney(int64(float64(la)*r.Float()+0.5), lc), nil
		case sqlparse.OpDiv:
			if r.Float() == 0 {
				return value.Null, fmt.Errorf("plan: division by zero")
			}
			return value.NewMoney(int64(float64(la)/r.Float()+0.5), lc), nil
		}
		return value.Null, fmt.Errorf("plan: money %s number unsupported", op)
	case isNumeric(l) && r.Kind() == value.KindMoney && op == sqlparse.OpMul:
		ra, rc := r.Money()
		return value.NewMoney(int64(l.Float()*float64(ra)+0.5), rc), nil
	default:
		return value.Null, fmt.Errorf("plan: %s %s %s unsupported", l.Kind(), op, r.Kind())
	}
}

func isNumeric(v value.Value) bool {
	return v.Kind() == value.KindInt || v.Kind() == value.KindFloat
}

func (ev *Evaluator) evalIn(x sqlparse.In, env Env) (value.Value, error) {
	v, err := ev.Eval(x.Inner, env)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := ev.Eval(item, env)
		if err != nil {
			return value.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		c, err := compareForEval(v, iv)
		if err != nil {
			continue // incomparable list item can never match
		}
		if c == 0 {
			return value.NewBool(!x.Negate), nil
		}
	}
	if sawNull {
		return value.Null, nil
	}
	return value.NewBool(x.Negate), nil
}

func (ev *Evaluator) evalBetween(x sqlparse.Between, env Env) (value.Value, error) {
	v, err := ev.Eval(x.Inner, env)
	if err != nil {
		return value.Null, err
	}
	lo, err := ev.Eval(x.Lo, env)
	if err != nil {
		return value.Null, err
	}
	hi, err := ev.Eval(x.Hi, env)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.Null, nil
	}
	cl, err := compareForEval(v, lo)
	if err != nil {
		return value.Null, err
	}
	ch, err := compareForEval(v, hi)
	if err != nil {
		return value.Null, err
	}
	in := cl >= 0 && ch <= 0
	return value.NewBool(in != x.Negate), nil
}

func (ev *Evaluator) evalLike(x sqlparse.Like, env Env) (value.Value, error) {
	v, err := ev.Eval(x.Inner, env)
	if err != nil {
		return value.Null, err
	}
	p, err := ev.Eval(x.Pattern, env)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return value.Null, nil
	}
	if v.Kind() != value.KindString || p.Kind() != value.KindString {
		return value.Null, fmt.Errorf("plan: LIKE requires strings")
	}
	ok := likeMatch(strings.ToLower(v.Str()), strings.ToLower(p.Str()))
	return value.NewBool(ok != x.Negate), nil
}

// likeMatch implements SQL LIKE (% = any run, _ = any single rune) with
// iterative backtracking over the last %.
func likeMatch(s, pattern string) bool {
	sr, pr := []rune(s), []rune(pattern)
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(sr) {
		switch {
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case pi < len(pr) && pr[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}
