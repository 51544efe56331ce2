package exec

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// Snapshot support: a Database serializes to a JSON document (schemas,
// rows, declared indexes) and reloads into an empty Database. Sites use
// this to survive restarts — the paper's five-nines posture assumes a
// failed machine comes back with its fragment intact.

// snapDoc is the snapshot file shape.
type snapDoc struct {
	Version int         `json:"version"`
	Tables  []snapTable `json:"tables"`
}

type snapTable struct {
	Schema  snapSchema  `json:"schema"`
	Indexes snapIndexes `json:"indexes"`
	Rows    [][]snapVal `json:"rows"`
}

type snapSchema struct {
	Name    string       `json:"name"`
	Columns []snapColumn `json:"columns"`
	Key     []string     `json:"key,omitempty"`
}

type snapColumn struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	NotNull  bool   `json:"not_null,omitempty"`
	FullText bool   `json:"full_text,omitempty"`
	Taxonomy string `json:"taxonomy,omitempty"`
}

type snapIndexes struct {
	Ordered []string `json:"ordered,omitempty"`
	Hash    []string `json:"hash,omitempty"`
}

type snapVal struct {
	K string  `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
	B bool    `json:"b,omitempty"`
}

func snapEncode(v value.Value) snapVal {
	switch v.Kind() {
	case value.KindNull:
		return snapVal{K: "null"}
	case value.KindBool:
		return snapVal{K: "bool", B: v.Bool()}
	case value.KindInt:
		return snapVal{K: "int", I: v.Int()}
	case value.KindFloat:
		return snapVal{K: "float", F: v.Float()}
	case value.KindString:
		return snapVal{K: "string", S: v.Str()}
	case value.KindMoney:
		amt, cur := v.Money()
		return snapVal{K: "money", I: amt, S: cur}
	case value.KindTime:
		return snapVal{K: "time", I: v.Time().UnixNano()}
	case value.KindDuration:
		d, sem := v.Duration()
		return snapVal{K: "duration", I: int64(d), S: string(sem)}
	default:
		return snapVal{K: "null"}
	}
}

func snapDecode(s snapVal) (value.Value, error) {
	switch s.K {
	case "null":
		return value.Null, nil
	case "bool":
		return value.NewBool(s.B), nil
	case "int":
		return value.NewInt(s.I), nil
	case "float":
		return value.NewFloat(s.F), nil
	case "string":
		return value.NewString(s.S), nil
	case "money":
		return value.NewMoney(s.I, s.S), nil
	case "time":
		return value.NewTime(time.Unix(0, s.I).UTC()), nil
	case "duration":
		return value.NewDuration(time.Duration(s.I), value.DurationSemantics(s.S)), nil
	default:
		return value.Null, fmt.Errorf("exec: snapshot value kind %q", s.K)
	}
}

// SaveSnapshot writes the database (every table's schema, index
// declarations and rows) as JSON.
func (db *Database) SaveSnapshot(w io.Writer) error {
	doc := snapDoc{Version: 1}
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		def := t.Def()
		st := snapTable{Schema: snapSchema{Name: def.Name, Key: def.Key}}
		for _, c := range def.Columns {
			st.Schema.Columns = append(st.Schema.Columns, snapColumn{
				Name: c.Name, Kind: c.Kind.String(), NotNull: c.NotNull,
				FullText: c.FullText, Taxonomy: c.Taxonomy,
			})
			if t.HasIndex(c.Name) {
				st.Indexes.Ordered = append(st.Indexes.Ordered, c.Name)
			}
			if t.HasHashIndex(c.Name) {
				st.Indexes.Hash = append(st.Indexes.Hash, c.Name)
			}
		}
		t.Scan(func(_ int64, row storage.Row) bool {
			sr := make([]snapVal, len(row))
			for i, v := range row {
				sr[i] = snapEncode(v)
			}
			st.Rows = append(st.Rows, sr)
			return true
		})
		doc.Tables = append(doc.Tables, st)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// LoadSnapshot restores a snapshot into this (empty) database.
func (db *Database) LoadSnapshot(r io.Reader) error {
	var doc snapDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("exec: decoding snapshot: %w", err)
	}
	if doc.Version != 1 {
		return fmt.Errorf("exec: unsupported snapshot version %d", doc.Version)
	}
	for _, st := range doc.Tables {
		cols := make([]schema.Column, 0, len(st.Schema.Columns))
		for _, sc := range st.Schema.Columns {
			k, err := value.KindFromName(sc.Kind)
			if err != nil {
				return fmt.Errorf("exec: snapshot table %q: %w", st.Schema.Name, err)
			}
			cols = append(cols, schema.Column{
				Name: sc.Name, Kind: k, NotNull: sc.NotNull,
				FullText: sc.FullText, Taxonomy: sc.Taxonomy,
			})
		}
		def, err := schema.NewTable(st.Schema.Name, cols, st.Schema.Key...)
		if err != nil {
			return err
		}
		t, err := db.CreateTable(def)
		if err != nil {
			return err
		}
		for _, col := range st.Indexes.Ordered {
			if err := t.CreateIndex(col); err != nil {
				return err
			}
		}
		for _, col := range st.Indexes.Hash {
			if err := t.CreateHashIndex(col); err != nil {
				return err
			}
		}
		for ri, sr := range st.Rows {
			row := make(storage.Row, len(sr))
			for i, sv := range sr {
				v, err := snapDecode(sv)
				if err != nil {
					return err
				}
				row[i] = v
			}
			if _, err := t.Insert(row); err != nil {
				return fmt.Errorf("exec: snapshot table %q row %d: %w", st.Schema.Name, ri, err)
			}
		}
	}
	return nil
}
