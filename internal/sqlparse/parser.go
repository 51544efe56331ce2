package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"cohera/internal/value"
)

// Parse parses a single SQL statement.
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseExpr parses a standalone scalar expression (used by the
// transformation rule language and view definitions).
func ParseExpr(input string) (Expr, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().Text)
	}
	return e, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errf("expected %s, found %q", want, p.cur().Text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.selectOrUnion()
	case p.at(TokKeyword, "INSERT"):
		return p.insertStmt()
	case p.at(TokKeyword, "UPDATE"):
		return p.updateStmt()
	case p.at(TokKeyword, "DELETE"):
		return p.deleteStmt()
	case p.at(TokKeyword, "CREATE"):
		return p.createStmt()
	case p.at(TokKeyword, "EXPLAIN"):
		return p.explainStmt()
	default:
		return nil, p.errf("expected a statement, found %q", p.cur().Text)
	}
}

// explainStmt parses EXPLAIN [ANALYZE] <select>. Only SELECT/UNION can
// be explained: the interesting plan is the federated decomposition,
// and DML routing is already reported through DMLResult.
func (p *parser) explainStmt() (Statement, error) {
	if _, err := p.expect(TokKeyword, "EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.accept(TokKeyword, "ANALYZE")
	if !p.at(TokKeyword, "SELECT") {
		return nil, p.errf("EXPLAIN expects a SELECT, found %q", p.cur().Text)
	}
	inner, err := p.selectOrUnion()
	if err != nil {
		return nil, err
	}
	return ExplainStmt{Analyze: analyze, Stmt: inner}, nil
}

// selectOrUnion parses a SELECT, continuing into a UNION chain when the
// keyword follows. Mixing UNION and UNION ALL in one chain is rejected.
func (p *parser) selectOrUnion() (Statement, error) {
	first, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if !p.at(TokKeyword, "UNION") {
		return first, nil
	}
	u := UnionStmt{Selects: []SelectStmt{first.(SelectStmt)}}
	allSet := false
	for p.accept(TokKeyword, "UNION") {
		all := p.accept(TokKeyword, "ALL")
		if !allSet {
			u.All = all
			allSet = true
		} else if u.All != all {
			return nil, p.errf("cannot mix UNION and UNION ALL in one chain")
		}
		next, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		u.Selects = append(u.Selects, next.(SelectStmt))
	}
	return u, nil
}

func (p *parser) selectStmt() (Statement, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := SelectStmt{Limit: -1}
	s.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s.From = from
	for {
		var kind JoinKind
		switch {
		case p.at(TokKeyword, "JOIN") || p.at(TokKeyword, "INNER"):
			p.accept(TokKeyword, "INNER")
			kind = JoinInner
		case p.at(TokKeyword, "LEFT"):
			p.next()
			p.accept(TokKeyword, "OUTER")
			kind = JoinLeft
		default:
			goto joinsDone
		}
		if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, Join{Kind: kind, Table: tr, On: on})
	}
joinsDone:
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				key.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	if p.accept(TokKeyword, "OFFSET") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Offset = n
	}
	return s, nil
}

func (p *parser) intLiteral() (int, error) {
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(TokSymbol, "*") {
		return SelectItem{Expr: Star{}}, nil
	}
	// table.* form
	if p.cur().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokSymbol && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokSymbol && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next()
		p.next()
		return SelectItem{Expr: Star{Table: tbl}}, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		t, err := p.expect(TokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.Text
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: t.Text}
	if p.accept(TokKeyword, "AS") {
		a, err := p.expect(TokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a.Text
	} else if p.cur().Kind == TokIdent {
		tr.Alias = p.next().Text
	}
	return tr, nil
}

// Expression grammar, loosest to tightest:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := addExpr [compOp addExpr | IS [NOT] NULL | [NOT] IN (...) |
//	             [NOT] BETWEEN addExpr AND addExpr | [NOT] LIKE addExpr]
//	addExpr := mulExpr (('+'|'-') mulExpr)*
//	mulExpr := unary (('*'|'/') unary)*
//	unary   := '-' unary | primary
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Not{Inner: inner}, nil
	}
	return p.predicate()
}

var compOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) predicate() (Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokSymbol {
		if op, ok := compOps[p.cur().Text]; ok {
			p.next()
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return Binary{Op: op, Left: left, Right: right}, nil
		}
	}
	negate := false
	if p.at(TokKeyword, "NOT") {
		// lookahead: NOT IN / NOT BETWEEN / NOT LIKE
		nxt := p.toks[p.pos+1]
		if nxt.Kind == TokKeyword && (nxt.Text == "IN" || nxt.Text == "BETWEEN" || nxt.Text == "LIKE") {
			p.next()
			negate = true
		}
	}
	switch {
	case p.accept(TokKeyword, "IS"):
		neg := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return IsNull{Inner: left, Negate: neg}, nil
	case p.accept(TokKeyword, "IN"):
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return In{Inner: left, List: list, Negate: negate}, nil
	case p.accept(TokKeyword, "BETWEEN"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Between{Inner: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.accept(TokKeyword, "LIKE"):
		pat, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Like{Inner: left, Pattern: pat, Negate: negate}, nil
	}
	return left, nil
}

func (p *parser) addExpr() (Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept(TokSymbol, "+"):
			op = OpAdd
		case p.accept(TokSymbol, "-"):
			op = OpSub
		default:
			return left, nil
		}
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.accept(TokSymbol, "*"):
			op = OpMul
		case p.accept(TokSymbol, "/"):
			op = OpDiv
		default:
			return left, nil
		}
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		inner, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Neg{Inner: inner}, nil
	}
	return p.primary()
}

var textModes = map[string]TextMatchMode{
	"CONTAINS": MatchContains, "FUZZY": MatchFuzzy,
	"SYNONYM": MatchSynonym, "MATCHES": MatchAll,
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return Literal{Value: value.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return Literal{Value: value.NewInt(n)}, nil
	case TokString:
		p.next()
		return Literal{Value: value.NewString(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return Literal{Value: value.Null}, nil
		case "TRUE":
			p.next()
			return Literal{Value: value.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return Literal{Value: value.NewBool(false)}, nil
		case "CONTAINS", "FUZZY", "MATCHES", "SYNONYM":
			return p.textMatch(textModes[t.Text])
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", t.Text)
	case TokIdent:
		p.next()
		// Function call?
		if p.accept(TokSymbol, "(") {
			call := Call{Name: strings.ToUpper(t.Text)}
			if !p.accept(TokSymbol, ")") {
				for {
					// A bare * is only an argument (COUNT(*)), never an
					// operand: "(*)" or "* + 1" would not survive rendering.
					var a Expr = Star{}
					if !p.accept(TokSymbol, "*") {
						var err error
						if a, err = p.expr(); err != nil {
							return nil, err
						}
					}
					call.Args = append(call.Args, a)
					if !p.accept(TokSymbol, ",") {
						break
					}
				}
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified column?
		if p.accept(TokSymbol, ".") {
			c, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			return ColumnRef{Table: t.Text, Column: c.Text}, nil
		}
		return ColumnRef{Column: t.Text}, nil
	default:
		return nil, p.errf("unexpected end of input")
	}
}

// textMatch parses MODE(column, queryExpr). SYNONYM also accepts the
// spelled-out form SYNONYM OF(column, q) for readability.
func (p *parser) textMatch(mode TextMatchMode) (Expr, error) {
	p.next() // consume mode keyword
	if mode == MatchSynonym {
		p.accept(TokKeyword, "OF")
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	colTok, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	col := ColumnRef{Column: colTok.Text}
	if p.accept(TokSymbol, ".") {
		c2, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		col = ColumnRef{Table: colTok.Text, Column: c2.Text}
	}
	if _, err := p.expect(TokSymbol, ","); err != nil {
		return nil, err
	}
	q, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	return TextMatch{Col: col, Query: q, Mode: mode}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	s := InsertStmt{Table: t.Text}
	if p.accept(TokSymbol, "(") {
		for {
			c, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, c.Text)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return s, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.next() // UPDATE
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	s := UpdateStmt{Table: t.Text}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, Assignment{Column: c.Text, Expr: e})
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	s := DeleteStmt{Table: t.Text}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	s := CreateTableStmt{Table: t.Text}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		if p.accept(TokKeyword, "PRIMARY") {
			if _, err := p.expect(TokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			for {
				k, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				s.Key = append(s.Key, k.Text)
				if !p.accept(TokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
		} else {
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			typ, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			cd := ColumnDef{Name: name.Text, Type: typ.Text}
			if p.accept(TokKeyword, "NOT") {
				if _, err := p.expect(TokKeyword, "NULL"); err != nil {
					return nil, err
				}
				cd.NotNull = true
			}
			s.Columns = append(s.Columns, cd)
		}
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return nil, err
	}
	if len(s.Columns) == 0 {
		return nil, p.errf("CREATE TABLE %s has no columns", s.Table)
	}
	return s, nil
}
