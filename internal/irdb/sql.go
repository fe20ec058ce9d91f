package irdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements the SQL subset of the IRDB, used by command-line
// tools to inspect a captured IR. The IRDB is a read-only dump, so SELECT
// is the only statement:
//
//	SELECT * FROM t WHERE a = 1 AND b != 'x'
//	SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')
//	SELECT a, b FROM t ORDER BY a DESC LIMIT 10
//	SELECT COUNT(*) FROM t WHERE a > 3
//
// Comparison operators: = != < <= > >=, plus IN/NOT IN over literal
// lists, combined with AND. An empty IN () list matches no row (and
// NOT IN () every row), matching standard SQL's vacuous semantics.
// Literals are integers, 'single-quoted strings' (with '' escaping a
// quote inside the string), TRUE and FALSE. Keywords are
// case-insensitive; identifiers are case-sensitive.

// Result is the outcome of an Exec call.
type Result struct {
	Cols []string // selected column names
	Rows []Row    // matching rows
}

// Exec parses and runs one SELECT statement.
func (db *DB) Exec(query string) (Result, error) {
	toks, err := tokenize(query)
	if err != nil {
		return Result{}, err
	}
	p := &sqlParser{toks: toks}
	if !p.peekKw("SELECT") {
		return Result{}, fmt.Errorf("irdb: unsupported statement %q", query)
	}
	return p.query(db)
}

type token struct {
	kind byte // 'i' ident, 'n' number, 's' string, 'p' punct
	text string
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(s) {
					return nil, fmt.Errorf("irdb: unterminated string literal")
				}
				if s[j] == '\'' {
					// A doubled quote is SQL's escape for a literal
					// quote inside the string ('it''s' => it's).
					if j+1 < len(s) && s[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(s[j])
				j++
			}
			toks = append(toks, token{kind: 's', text: sb.String()})
			i = j + 1
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(s) && ((s[j] >= '0' && s[j] <= '9') || s[j] == 'x' ||
				(s[j] >= 'a' && s[j] <= 'f') || (s[j] >= 'A' && s[j] <= 'F')) {
				j++
			}
			toks = append(toks, token{kind: 'n', text: s[i:j]})
			i = j
		case isIdentByte(c):
			j := i + 1
			for j < len(s) && (isIdentByte(s[j]) || (s[j] >= '0' && s[j] <= '9')) {
				j++
			}
			toks = append(toks, token{kind: 'i', text: s[i:j]})
			i = j
		case strings.IndexByte("(),*=", c) >= 0:
			toks = append(toks, token{kind: 'p', text: string(c)})
			i++
		case c == '!' || c == '<' || c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{kind: 'p', text: s[i : i+2]})
				i += 2
			} else {
				toks = append(toks, token{kind: 'p', text: string(c)})
				i++
			}
		default:
			return nil, fmt.Errorf("irdb: unexpected character %q", c)
		}
	}
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

type sqlParser struct {
	toks []token
	pos  int
}

func (p *sqlParser) peekKw(kw string) bool {
	return p.pos < len(p.toks) && p.toks[p.pos].kind == 'i' &&
		strings.EqualFold(p.toks[p.pos].text, kw)
}

func (p *sqlParser) eatKw(kw string) error {
	if !p.peekKw(kw) {
		return fmt.Errorf("irdb: expected %s", kw)
	}
	p.pos++
	return nil
}

func (p *sqlParser) eatPunct(ch string) error {
	if p.pos >= len(p.toks) || p.toks[p.pos].kind != 'p' || p.toks[p.pos].text != ch {
		return fmt.Errorf("irdb: expected %q", ch)
	}
	p.pos++
	return nil
}

func (p *sqlParser) ident() (string, error) {
	if p.pos >= len(p.toks) || p.toks[p.pos].kind != 'i' {
		return "", fmt.Errorf("irdb: expected identifier")
	}
	t := p.toks[p.pos].text
	p.pos++
	return t, nil
}

func (p *sqlParser) literal() (any, error) {
	if p.pos >= len(p.toks) {
		return nil, fmt.Errorf("irdb: expected literal")
	}
	t := p.toks[p.pos]
	p.pos++
	switch t.kind {
	case 'n':
		neg := strings.HasPrefix(t.text, "-")
		body := strings.TrimPrefix(t.text, "-")
		base := 10
		if strings.HasPrefix(body, "0x") || strings.HasPrefix(body, "0X") {
			base, body = 16, body[2:]
		}
		v, err := strconv.ParseInt(body, base, 64)
		if err != nil {
			return nil, fmt.Errorf("irdb: bad number %q", t.text)
		}
		if neg {
			v = -v
		}
		return v, nil
	case 's':
		return t.text, nil
	case 'i':
		if strings.EqualFold(t.text, "TRUE") {
			return true, nil
		}
		if strings.EqualFold(t.text, "FALSE") {
			return false, nil
		}
	}
	return nil, fmt.Errorf("irdb: expected literal, got %q", t.text)
}

func (p *sqlParser) done() error {
	if p.pos != len(p.toks) {
		return fmt.Errorf("irdb: trailing tokens after statement")
	}
	return nil
}

// where parses an optional WHERE clause into a predicate.
func (p *sqlParser) where() (func(Row) bool, error) {
	if !p.peekKw("WHERE") {
		return nil, nil
	}
	p.pos++
	type cond struct {
		col, op string
		val     any
		set     []any // IN / NOT IN literal list
	}
	var conds []cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch {
		case p.peekKw("IN"):
			p.pos++
			set, err := p.literalList()
			if err != nil {
				return nil, err
			}
			conds = append(conds, cond{col: col, op: "in", set: set})
		case p.peekKw("NOT"):
			p.pos++
			if err := p.eatKw("IN"); err != nil {
				return nil, err
			}
			set, err := p.literalList()
			if err != nil {
				return nil, err
			}
			conds = append(conds, cond{col: col, op: "not-in", set: set})
		default:
			if p.pos >= len(p.toks) || p.toks[p.pos].kind != 'p' {
				return nil, fmt.Errorf("irdb: expected comparison operator")
			}
			op := p.toks[p.pos].text
			p.pos++
			val, err := p.literal()
			if err != nil {
				return nil, err
			}
			conds = append(conds, cond{col: col, op: op, val: val})
		}
		if !p.peekKw("AND") {
			break
		}
		p.pos++
	}
	return func(r Row) bool {
		for _, c := range conds {
			switch c.op {
			case "in", "not-in":
				member := false
				for _, v := range c.set {
					if compare(r[c.col], "=", v) {
						member = true
						break
					}
				}
				if member == (c.op == "not-in") {
					return false
				}
			default:
				if !compare(r[c.col], c.op, c.val) {
					return false
				}
			}
		}
		return true
	}, nil
}

// literalList parses a parenthesized comma-separated literal list, as
// used by IN. The list may be empty: IN () is a legal predicate that
// matches nothing.
func (p *sqlParser) literalList() ([]any, error) {
	if err := p.eatPunct("("); err != nil {
		return nil, err
	}
	var vals []any
	if p.pos < len(p.toks) && p.toks[p.pos].kind == 'p' && p.toks[p.pos].text == ")" {
		p.pos++
		return vals, nil
	}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.pos < len(p.toks) && p.toks[p.pos].kind == 'p' && p.toks[p.pos].text == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.eatPunct(")"); err != nil {
		return nil, err
	}
	return vals, nil
}

// compare applies op between a stored value and a literal.
func compare(stored any, op string, lit any) bool {
	switch sv := stored.(type) {
	case int64:
		lv, ok := lit.(int64)
		if !ok {
			return false
		}
		switch op {
		case "=":
			return sv == lv
		case "!=":
			return sv != lv
		case "<":
			return sv < lv
		case "<=":
			return sv <= lv
		case ">":
			return sv > lv
		case ">=":
			return sv >= lv
		}
	case string:
		lv, ok := lit.(string)
		if !ok {
			return false
		}
		switch op {
		case "=":
			return sv == lv
		case "!=":
			return sv != lv
		case "<":
			return sv < lv
		case "<=":
			return sv <= lv
		case ">":
			return sv > lv
		case ">=":
			return sv >= lv
		}
	case bool:
		lv, ok := lit.(bool)
		if !ok {
			return false
		}
		switch op {
		case "=":
			return sv == lv
		case "!=":
			return sv != lv
		}
	}
	return false
}

func (p *sqlParser) query(db *DB) (Result, error) {
	p.pos++ // SELECT
	var cols []string
	star, count := false, false
	switch {
	case p.pos < len(p.toks) && p.toks[p.pos].text == "*":
		star = true
		p.pos++
	case p.peekKw("COUNT"):
		p.pos++
		if err := p.eatPunct("("); err != nil {
			return Result{}, err
		}
		if err := p.eatPunct("*"); err != nil {
			return Result{}, err
		}
		if err := p.eatPunct(")"); err != nil {
			return Result{}, err
		}
		count = true
	default:
		for {
			cn, err := p.ident()
			if err != nil {
				return Result{}, err
			}
			cols = append(cols, cn)
			if p.pos < len(p.toks) && p.toks[p.pos].text == "," {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.eatKw("FROM"); err != nil {
		return Result{}, err
	}
	name, err := p.ident()
	if err != nil {
		return Result{}, err
	}
	pred, err := p.where()
	if err != nil {
		return Result{}, err
	}
	orderCol, orderDesc, hasOrder, err := p.orderBy()
	if err != nil {
		return Result{}, err
	}
	limit, hasLimit, err := p.limit()
	if err != nil {
		return Result{}, err
	}
	if err := p.done(); err != nil {
		return Result{}, err
	}
	rows, err := db.Select(name, pred)
	if err != nil {
		return Result{}, err
	}
	if count {
		return Result{
			Cols: []string{"count"},
			Rows: []Row{{"count": int64(len(rows))}},
		}, nil
	}
	if hasOrder {
		if err := validateColumn(db, name, orderCol); err != nil {
			return Result{}, err
		}
		sort.SliceStable(rows, func(i, j int) bool {
			less := rowLess(rows[i][orderCol], rows[j][orderCol])
			if orderDesc {
				return rowLess(rows[j][orderCol], rows[i][orderCol])
			}
			return less
		})
	}
	if hasLimit && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	if star {
		db.mu.RLock()
		t := db.tables[name]
		cols = []string{"id"}
		names := make([]string, 0, len(t.schema.Cols))
		for _, c := range t.schema.Cols {
			names = append(names, c.Name)
		}
		db.mu.RUnlock()
		sort.Strings(names)
		cols = append(cols, names...)
	} else {
		// Validate column names and project.
		for _, c := range cols {
			db.mu.RLock()
			_, ok := db.tables[name].cols[c]
			db.mu.RUnlock()
			if !ok {
				return Result{}, fmt.Errorf("%w: %s.%s", ErrBadColumn, name, c)
			}
		}
		for i, r := range rows {
			pr := Row{}
			for _, c := range cols {
				pr[c] = r[c]
			}
			rows[i] = pr
		}
	}
	return Result{Cols: cols, Rows: rows}, nil
}

// orderBy parses an optional ORDER BY col [ASC|DESC] clause.
func (p *sqlParser) orderBy() (col string, desc, present bool, err error) {
	if !p.peekKw("ORDER") {
		return "", false, false, nil
	}
	p.pos++
	if err := p.eatKw("BY"); err != nil {
		return "", false, false, err
	}
	col, err = p.ident()
	if err != nil {
		return "", false, false, err
	}
	switch {
	case p.peekKw("DESC"):
		desc = true
		p.pos++
	case p.peekKw("ASC"):
		p.pos++
	}
	return col, desc, true, nil
}

// limit parses an optional LIMIT n clause.
func (p *sqlParser) limit() (int64, bool, error) {
	if !p.peekKw("LIMIT") {
		return 0, false, nil
	}
	p.pos++
	v, err := p.literal()
	if err != nil {
		return 0, false, err
	}
	n, ok := v.(int64)
	if !ok || n < 0 {
		return 0, false, fmt.Errorf("irdb: bad LIMIT %v", v)
	}
	return n, true, nil
}

// rowLess orders stored values of the same column type.
func rowLess(a, b any) bool {
	switch av := a.(type) {
	case int64:
		bv, _ := b.(int64)
		return av < bv
	case string:
		bv, _ := b.(string)
		return av < bv
	case bool:
		bv, _ := b.(bool)
		return !av && bv
	}
	return false
}

// validateColumn checks col exists on the table.
func validateColumn(db *DB, table, col string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	if _, ok := t.cols[col]; !ok {
		return fmt.Errorf("%w: %s.%s", ErrBadColumn, table, col)
	}
	return nil
}
