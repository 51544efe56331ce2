// Package remote puts real sockets under the federation: a Server
// exposes a site's local tables over HTTP (schema discovery + filtered
// fetch), and the client side presents each remote table as a
// wrapper.Source with equality pushdown, so a federation can span
// processes and machines exactly the way the paper's cross-enterprise
// setting demands. Requests and one-shot responses are JSON with
// kind-tagged values so money, durations and timestamps survive the
// trip. Row streams (POST /fetchstream) travel as length-prefixed
// binary frames carrying rows in the value package's binary row codec
// when both ends know it, and as NDJSON otherwise; stream.go documents
// the frame layout and the negotiation.
package remote

import (
	"encoding/json"
	"fmt"
	"time"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// wireValue is the JSON encoding of one value.Value.
type wireValue struct {
	Kind string `json:"k"`
	// I carries ints, money minor units, unix-nano timestamps and
	// duration nanoseconds.
	I int64 `json:"i,omitempty"`
	// F carries floats.
	F float64 `json:"f,omitempty"`
	// S carries strings, currency codes and duration semantics.
	S string `json:"s,omitempty"`
	// B carries booleans.
	B bool `json:"b,omitempty"`
}

func encodeValue(v value.Value) wireValue {
	switch v.Kind() {
	case value.KindNull:
		return wireValue{Kind: "null"}
	case value.KindBool:
		return wireValue{Kind: "bool", B: v.Bool()}
	case value.KindInt:
		return wireValue{Kind: "int", I: v.Int()}
	case value.KindFloat:
		return wireValue{Kind: "float", F: v.Float()}
	case value.KindString:
		return wireValue{Kind: "string", S: v.Str()}
	case value.KindMoney:
		amt, cur := v.Money()
		return wireValue{Kind: "money", I: amt, S: cur}
	case value.KindTime:
		return wireValue{Kind: "time", I: v.Time().UnixNano()}
	case value.KindDuration:
		d, sem := v.Duration()
		return wireValue{Kind: "duration", I: int64(d), S: string(sem)}
	default:
		return wireValue{Kind: "null"}
	}
}

func decodeValue(w wireValue) (value.Value, error) {
	switch w.Kind {
	case "null":
		return value.Null, nil
	case "bool":
		return value.NewBool(w.B), nil
	case "int":
		return value.NewInt(w.I), nil
	case "float":
		return value.NewFloat(w.F), nil
	case "string":
		return value.NewString(w.S), nil
	case "money":
		return value.NewMoney(w.I, w.S), nil
	case "time":
		return value.NewTime(time.Unix(0, w.I).UTC()), nil
	case "duration":
		return value.NewDuration(time.Duration(w.I), value.DurationSemantics(w.S)), nil
	default:
		return value.Null, fmt.Errorf("remote: unknown value kind %q", w.Kind)
	}
}

func encodeRows(rows []storage.Row) [][]wireValue {
	out := make([][]wireValue, len(rows))
	for i, r := range rows {
		wr := make([]wireValue, len(r))
		for j, v := range r {
			wr[j] = encodeValue(v)
		}
		out[i] = wr
	}
	return out
}

func decodeRows(in [][]wireValue) ([]storage.Row, error) {
	out := make([]storage.Row, len(in))
	for i, wr := range in {
		r := make(storage.Row, len(wr))
		for j, w := range wr {
			v, err := decodeValue(w)
			if err != nil {
				return nil, err
			}
			r[j] = v
		}
		out[i] = r
	}
	return out, nil
}

// wireColumn mirrors schema.Column.
type wireColumn struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	NotNull  bool   `json:"not_null,omitempty"`
	FullText bool   `json:"full_text,omitempty"`
	Taxonomy string `json:"taxonomy,omitempty"`
}

// wireSchema mirrors schema.Table.
type wireSchema struct {
	Name    string       `json:"name"`
	Columns []wireColumn `json:"columns"`
	Key     []string     `json:"key,omitempty"`
	// PushdownEq advertises the columns the server filters remotely.
	PushdownEq []string `json:"pushdown_eq,omitempty"`
	// Push advertises capability-aware σ/π/limit support. Old servers
	// omit it; old clients ignore it — either way the pushdown
	// negotiation degrades to the legacy equality-only protocol.
	Push *wirePushCaps `json:"push,omitempty"`
	// Volatile marks live tables.
	Volatile bool `json:"volatile,omitempty"`
}

// wirePushCaps is the JSON form of plan.PushCaps.
type wirePushCaps struct {
	Classes []string `json:"classes,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Project bool     `json:"project,omitempty"`
	Limit   bool     `json:"limit,omitempty"`
}

func encodePushCaps(c plan.PushCaps) *wirePushCaps {
	out := &wirePushCaps{Columns: c.Columns, Project: c.Project, Limit: c.Limit}
	for _, fc := range c.Classes {
		out.Classes = append(out.Classes, string(fc))
	}
	return out
}

// decodePushCaps maps the wire record back; unknown class names from a
// newer server are kept verbatim — they simply never match a conjunct's
// required classes, so the client stays conservative.
func decodePushCaps(w *wirePushCaps) plan.PushCaps {
	if w == nil {
		return plan.PushCaps{}
	}
	out := plan.PushCaps{Columns: w.Columns, Project: w.Project, Limit: w.Limit}
	for _, s := range w.Classes {
		out.Classes = append(out.Classes, plan.FilterClass(s))
	}
	return out
}

// wirePushedAck is the server's receipt for pushed σ/π/limit, sent as
// the first chunk of a /fetchstream response when the request
// carried push fields. Its absence is the old-server signal: the client
// then assumes nothing was applied and re-evaluates locally.
type wirePushedAck struct {
	// Where confirms rows are pre-filtered by the pushed predicate.
	Where bool `json:"where,omitempty"`
	// Cols, when non-empty, is the exact column set rows now carry.
	Cols []string `json:"cols,omitempty"`
	// Limit confirms the row cap is enforced server-side.
	Limit bool `json:"limit,omitempty"`
}

func encodeSchema(def *schema.Table, pushdown []string, volatile bool) wireSchema {
	ws := wireSchema{Name: def.Name, Key: def.Key, PushdownEq: pushdown, Volatile: volatile}
	for _, c := range def.Columns {
		ws.Columns = append(ws.Columns, wireColumn{
			Name: c.Name, Kind: c.Kind.String(), NotNull: c.NotNull,
			FullText: c.FullText, Taxonomy: c.Taxonomy,
		})
	}
	return ws
}

func decodeSchema(ws wireSchema) (*schema.Table, error) {
	cols := make([]schema.Column, 0, len(ws.Columns))
	for _, wc := range ws.Columns {
		k, err := value.KindFromName(wc.Kind)
		if err != nil {
			return nil, fmt.Errorf("remote: schema %q: %w", ws.Name, err)
		}
		cols = append(cols, schema.Column{
			Name: wc.Name, Kind: k, NotNull: wc.NotNull,
			FullText: wc.FullText, Taxonomy: wc.Taxonomy,
		})
	}
	return schema.NewTable(ws.Name, cols, ws.Key...)
}

// wireFilter is one pushed equality filter of a /fetchstream request.
type wireFilter struct {
	Column string    `json:"column"`
	Value  wireValue `json:"value"`
}

// digestRequest is the body of POST /digest.
type digestRequest struct {
	Table string `json:"table"`
}

// digestResponse carries a table's content digest. The 64-bit hash is
// zero-padded hex so it survives JSON readers that truncate large
// integers to float64.
type digestResponse struct {
	Hash string `json:"hash"`
	Rows int    `json:"rows"`
}

// replicationStatus is the body of GET /debug/replication.
type replicationStatus struct {
	Tables []tableReplication `json:"tables"`
}

type tableReplication struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Rows   int    `json:"rows"`
}

// errorResponse carries server-side failures.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w interface{ Write([]byte) (int, error) }, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
