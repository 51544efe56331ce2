package sqlparse

import (
	"strings"
	"testing"

	"cohera/internal/value"
)

func mustSelect(t *testing.T, sql string) SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	s, ok := stmt.(SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want SelectStmt", sql, stmt)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, "|")
	for _, frag := range []string{"SELECT", "a", "it's", "FROM", "WHERE", ">=", "1.5"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("lex output %q missing %q", joined, frag)
		}
	}
	if strings.Contains(joined, "comment") {
		t.Error("comment not skipped")
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", `"unterminated`, "a ! b", "a @ b"} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q) should fail", bad)
		}
	}
	// != is accepted as <>.
	toks, err := Lex("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "<>" {
		t.Errorf("!= lexed as %q", toks[1].Text)
	}
}

func TestSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM parts")
	if len(s.Items) != 1 {
		t.Fatalf("items = %v", s.Items)
	}
	if _, ok := s.Items[0].Expr.(Star); !ok {
		t.Errorf("item = %T", s.Items[0].Expr)
	}
	if s.From.Name != "parts" || s.Limit != -1 {
		t.Errorf("from = %+v limit = %d", s.From, s.Limit)
	}
}

func TestSelectFull(t *testing.T) {
	s := mustSelect(t, `SELECT DISTINCT p.name AS n, SUM(p.qty) total
		FROM parts p JOIN suppliers s ON p.sid = s.id
		LEFT JOIN regions r ON s.region = r.id
		WHERE p.price > 100 AND s.name LIKE 'Acme%'
		GROUP BY p.name HAVING SUM(p.qty) > 5
		ORDER BY n DESC, total LIMIT 10 OFFSET 20`)
	if !s.Distinct {
		t.Error("DISTINCT lost")
	}
	if len(s.Items) != 2 || s.Items[0].Alias != "n" || s.Items[1].Alias != "total" {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.Joins) != 2 || s.Joins[0].Kind != JoinInner || s.Joins[1].Kind != JoinLeft {
		t.Errorf("joins = %+v", s.Joins)
	}
	if s.Joins[1].Table.Alias != "r" {
		t.Errorf("join alias = %+v", s.Joins[1].Table)
	}
	if s.Where == nil || len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("where/group/having lost")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order = %+v", s.OrderBy)
	}
	if s.Limit != 10 || s.Offset != 20 {
		t.Errorf("limit/offset = %d/%d", s.Limit, s.Offset)
	}
}

func TestExprPrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * 2 = 10 OR NOT c AND d")
	if err != nil {
		t.Fatal(err)
	}
	// OR binds loosest: (a+b*2=10) OR ((NOT c) AND d)
	or, ok := e.(Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top = %v", e)
	}
	cmp, ok := or.Left.(Binary)
	if !ok || cmp.Op != OpEq {
		t.Fatalf("left = %v", or.Left)
	}
	add, ok := cmp.Left.(Binary)
	if !ok || add.Op != OpAdd {
		t.Fatalf("cmp.Left = %v", cmp.Left)
	}
	if mul, ok := add.Right.(Binary); !ok || mul.Op != OpMul {
		t.Fatalf("add.Right = %v", add.Right)
	}
	and, ok := or.Right.(Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right = %v", or.Right)
	}
	if _, ok := and.Left.(Not); !ok {
		t.Fatalf("and.Left = %v", and.Left)
	}
}

func TestPredicateForms(t *testing.T) {
	cases := []string{
		"x IS NULL", "x IS NOT NULL",
		"x IN (1, 2, 3)", "x NOT IN ('a', 'b')",
		"x BETWEEN 1 AND 10", "x NOT BETWEEN 1 AND 10",
		"name LIKE 'ink%'", "name NOT LIKE '%ink'",
		"-x < 5", "x <> y", "price >= 10.5",
	}
	for _, c := range cases {
		if _, err := ParseExpr(c); err != nil {
			t.Errorf("ParseExpr(%q): %v", c, err)
		}
	}
	e, _ := ParseExpr("x NOT IN (1)")
	if in, ok := e.(In); !ok || !in.Negate {
		t.Errorf("NOT IN = %#v", e)
	}
	e, _ = ParseExpr("x IS NOT NULL")
	if isn, ok := e.(IsNull); !ok || !isn.Negate {
		t.Errorf("IS NOT NULL = %#v", e)
	}
}

func TestTextPredicates(t *testing.T) {
	cases := map[string]TextMatchMode{
		"CONTAINS(name, 'black ink')": MatchContains,
		"FUZZY(name, 'drlls crdlss')": MatchFuzzy,
		"SYNONYM(name, 'India ink')":  MatchSynonym,
		"SYNONYM OF(name, 'ink')":     MatchSynonym,
		"MATCHES(p.name, 'ink')":      MatchAll,
	}
	for sql, mode := range cases {
		e, err := ParseExpr(sql)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", sql, err)
			continue
		}
		tm, ok := e.(TextMatch)
		if !ok || tm.Mode != mode {
			t.Errorf("ParseExpr(%q) = %#v, want mode %v", sql, e, mode)
		}
	}
	e, _ := ParseExpr("MATCHES(p.name, 'ink')")
	if tm := e.(TextMatch); tm.Col.Table != "p" || tm.Col.Column != "name" {
		t.Errorf("qualified text col = %+v", tm.Col)
	}
}

func TestLiterals(t *testing.T) {
	e, _ := ParseExpr("NULL")
	if !e.(Literal).Value.IsNull() {
		t.Error("NULL literal")
	}
	e, _ = ParseExpr("TRUE")
	if !e.(Literal).Value.Bool() {
		t.Error("TRUE literal")
	}
	e, _ = ParseExpr("42")
	if e.(Literal).Value.Int() != 42 {
		t.Error("int literal")
	}
	e, _ = ParseExpr("4.25")
	if e.(Literal).Value.Float() != 4.25 {
		t.Error("float literal")
	}
	e, _ = ParseExpr("'it''s'")
	if e.(Literal).Value.Str() != "it's" {
		t.Error("string literal with escape")
	}
}

func TestFunctionCalls(t *testing.T) {
	e, err := ParseExpr("COALESCE(a, UPPER(b), 'x')")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(Call)
	if c.Name != "COALESCE" || len(c.Args) != 3 {
		t.Errorf("call = %+v", c)
	}
	if inner, ok := c.Args[1].(Call); !ok || inner.Name != "UPPER" {
		t.Errorf("nested call = %+v", c.Args[1])
	}
	// COUNT(*) parses with Star argument.
	e, err = ParseExpr("COUNT(*)")
	if err != nil {
		t.Fatal(err)
	}
	if c := e.(Call); len(c.Args) != 1 {
		t.Errorf("COUNT(*) = %+v", c)
	}
	// Zero-arg call.
	e, err = ParseExpr("NOW()")
	if err != nil {
		t.Fatal(err)
	}
	if c := e.(Call); len(c.Args) != 0 {
		t.Errorf("NOW() = %+v", c)
	}
}

func TestInsertParse(t *testing.T) {
	stmt, err := Parse("INSERT INTO parts (sku, name) VALUES ('S1', 'ink'), ('S2', 'pen')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(InsertStmt)
	if ins.Table != "parts" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	// Without column list.
	stmt, err = Parse("INSERT INTO t VALUES (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if ins := stmt.(InsertStmt); len(ins.Columns) != 0 || len(ins.Rows[0]) != 2 {
		t.Errorf("insert = %+v", ins)
	}
}

func TestUpdateDeleteParse(t *testing.T) {
	stmt, err := Parse("UPDATE parts SET qty = qty - 1, name = 'x' WHERE sku = 'S1'")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(UpdateStmt)
	if up.Table != "parts" || len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
	stmt, err = Parse("DELETE FROM parts WHERE qty = 0")
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(DeleteStmt)
	if del.Table != "parts" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	stmt, err = Parse("DELETE FROM parts")
	if err != nil || stmt.(DeleteStmt).Where != nil {
		t.Errorf("bare delete = %+v, %v", stmt, err)
	}
}

func TestCreateTableParse(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE parts (
		sku TEXT NOT NULL, name TEXT, price MONEY, qty INTEGER,
		PRIMARY KEY (sku))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(CreateTableStmt)
	if ct.Table != "parts" || len(ct.Columns) != 4 {
		t.Fatalf("create = %+v", ct)
	}
	if !ct.Columns[0].NotNull || ct.Columns[1].NotNull {
		t.Errorf("notnull flags = %+v", ct.Columns)
	}
	if len(ct.Key) != 1 || ct.Key[0] != "sku" {
		t.Errorf("key = %v", ct.Key)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT FROM t", "SELECT * FROM", "SELECT * FROM t WHERE",
		"FROB x", "SELECT * FROM t trailing garbage (",
		"INSERT INTO t", "UPDATE t SET", "CREATE TABLE t",
		"CREATE TABLE t ()", "CREATE TABLE t (PRIMARY KEY (a))",
		"SELECT a FROM t JOIN", "SELECT a FROM t LIMIT x",
		"SELECT * FROM t; SELECT * FROM u",
		// A bare * is a select item or a call argument, never an
		// operand: these used to parse but render unparseably.
		"SELECT (*) A FROM t", "SELECT * + 1 FROM t", "SELECT a FROM t WHERE (*) = 1",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// String() output must re-parse to an equivalent statement.
	sqls := []string{
		"SELECT * FROM parts",
		"SELECT a, b AS x FROM t WHERE a = 1 AND b <> 'y' ORDER BY a DESC LIMIT 5",
		"SELECT p.name FROM parts p JOIN s ON p.id = s.id WHERE FUZZY(p.name, 'drlls')",
		"INSERT INTO t (a) VALUES (1)",
		"UPDATE t SET a = 2 WHERE a = 1",
		"DELETE FROM t WHERE a IS NOT NULL",
		"CREATE TABLE t (a TEXT NOT NULL, PRIMARY KEY (a))",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
	}
	for _, sql := range sqls {
		s1, err := Parse(sql)
		if err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
			continue
		}
		s2, err := Parse(s1.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", s1.String(), err)
			continue
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip diverged:\n  %s\n  %s", s1, s2)
		}
	}
}

func TestTableDotStar(t *testing.T) {
	s := mustSelect(t, "SELECT p.*, s.name FROM parts p JOIN s ON p.id = s.id")
	star, ok := s.Items[0].Expr.(Star)
	if !ok || star.Table != "p" {
		t.Errorf("p.* = %#v", s.Items[0].Expr)
	}
}

func TestLiteralString(t *testing.T) {
	l := Literal{Value: value.NewString("it's")}
	if l.String() != "'it''s'" {
		t.Errorf("Literal.String = %q", l.String())
	}
}
