package plan

import (
	"strings"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Bound is an expression compiled against a fixed column list: column
// references are resolved to row slots once, at Bind, instead of by
// name on every row. A Bound is not safe for concurrent use; streams
// are single-consumer, so each stream binds its own.
type Bound func(row []value.Value) (value.Value, error)

// Bind compiles e against names (the columns of the rows it will see,
// bare or "table.column", any case). Literals, column references and
// binary operators become closures over row slots; every other node
// falls back to Eval over one RowEnv shared by the whole Bound. A
// reference that does not resolve binds to a closure returning the
// error Resolve would return, so binding never fails and a stream that
// sees no rows never reports it.
func (ev *Evaluator) Bind(e sqlparse.Expr, names []string) Bound {
	lower := make([]string, len(names))
	for i, n := range names {
		lower[i] = strings.ToLower(n)
	}
	b := binder{ev: ev, names: lower}
	return b.bind(e)
}

type binder struct {
	ev    *Evaluator
	names []string
	env   *RowEnv // fallback environment, created on first use
}

func (b *binder) bind(e sqlparse.Expr) Bound {
	switch x := e.(type) {
	case sqlparse.Literal:
		v := x.Value
		return func([]value.Value) (value.Value, error) { return v, nil }
	case sqlparse.ColumnRef:
		i, err := ResolveSlot(b.names, x)
		if err != nil {
			return func([]value.Value) (value.Value, error) { return value.Null, err }
		}
		return func(row []value.Value) (value.Value, error) { return row[i], nil }
	case sqlparse.Binary:
		return bindBinary(x.Op, b.bind(x.Left), b.bind(x.Right))
	}
	if b.env == nil {
		b.env = NewRowEnvRaw(b.names, nil)
	}
	env, ev := b.env, b.ev
	return func(row []value.Value) (value.Value, error) {
		env.Values = row
		v, err := ev.Eval(e, env)
		env.Values = nil
		return v, err
	}
}

// bindBinary composes two bound operands with the operator semantics
// evalBinary uses, choosing the operator family once, at bind time.
func bindBinary(op sqlparse.BinaryOp, left, right Bound) Bound {
	switch {
	case isLogical(op):
		return func(row []value.Value) (value.Value, error) {
			l, err := left(row)
			if err != nil {
				return value.Null, err
			}
			if out, ok := shortCircuit(op, l); ok {
				return value.NewBool(out), nil
			}
			r, err := right(row)
			if err != nil {
				return value.Null, err
			}
			return logic3(op, l, r), nil
		}
	case isComparison(op):
		return func(row []value.Value) (value.Value, error) {
			l, err := left(row)
			if err != nil {
				return value.Null, err
			}
			r, err := right(row)
			if err != nil {
				return value.Null, err
			}
			return compareOp(op, l, r)
		}
	}
	return func(row []value.Value) (value.Value, error) {
		l, err := left(row)
		if err != nil {
			return value.Null, err
		}
		r, err := right(row)
		if err != nil {
			return value.Null, err
		}
		return arith(op, l, r)
	}
}
