package irdb

// SQL edge-case coverage: IN-list predicates (including the empty
// list's vacuous semantics), quote escaping in Text literals, ORDER BY
// on a Text column, and the reader/writer concurrency contract
// (exercised under -race by `make race`).

import (
	"fmt"
	"sync"
	"testing"
)

func edgeDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	err := db.CreateTable(Schema{Name: "syms", Cols: []Col{
		{Name: "addr", Type: Int}, {Name: "name", Type: Text}, {Name: "hot", Type: Bool},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []Row{
		{"addr": 0x1000, "name": "alpha", "hot": true},
		{"addr": 0x2000, "name": "beta", "hot": false},
		{"addr": 0x3000, "name": "gamma", "hot": true},
		{"addr": 0x4000, "name": "delta", "hot": false},
	} {
		if _, err := db.Insert("syms", r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return db
}

func TestSQLInLists(t *testing.T) {
	db := edgeDB(t)
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT * FROM syms WHERE addr IN (0x1000, 0x3000)", 2},
		{"SELECT * FROM syms WHERE addr IN (0x1000)", 1},
		{"SELECT * FROM syms WHERE addr IN (99)", 0},
		{"SELECT * FROM syms WHERE name IN ('alpha', 'nosuch', 'delta')", 2},
		{"SELECT * FROM syms WHERE hot IN (TRUE)", 2},
		{"SELECT * FROM syms WHERE addr NOT IN (0x1000, 0x3000)", 2},
		{"SELECT * FROM syms WHERE name NOT IN ('alpha')", 3},
		// Vacuous lists: IN () matches nothing, NOT IN () everything.
		{"SELECT * FROM syms WHERE addr IN ()", 0},
		{"SELECT * FROM syms WHERE addr NOT IN ()", 4},
		// IN composes with AND and the other operators.
		{"SELECT * FROM syms WHERE addr IN (0x1000, 0x2000, 0x3000) AND hot = TRUE", 2},
		{"SELECT * FROM syms WHERE addr > 0x1000 AND name IN ('beta', 'gamma')", 2},
		// COUNT over an IN predicate.
		{"SELECT COUNT(*) FROM syms WHERE addr IN (0x2000, 0x4000)", 1},
	}
	for _, tt := range cases {
		res, err := db.Exec(tt.q)
		if err != nil {
			t.Errorf("%s: %v", tt.q, err)
			continue
		}
		if len(res.Rows) != tt.want {
			t.Errorf("%s: %d rows, want %d", tt.q, len(res.Rows), tt.want)
		}
	}
	// Type mismatches inside the list never match (same as compare).
	res, err := db.Exec("SELECT * FROM syms WHERE addr IN ('alpha')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("string literal matched INT column: %d rows", len(res.Rows))
	}
	// Malformed lists are parse errors, not empty matches.
	for _, q := range []string{
		"SELECT * FROM syms WHERE addr IN (1,)",
		"SELECT * FROM syms WHERE addr IN 1",
		"SELECT * FROM syms WHERE addr IN (1",
		"SELECT * FROM syms WHERE addr NOT (1)",
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%s: accepted", q)
		}
	}
}

func TestSQLStringEscaping(t *testing.T) {
	db := New()
	if err := db.CreateTable(Schema{Name: "notes", Cols: []Col{{Name: "txt", Type: Text}}}); err != nil {
		t.Fatal(err)
	}
	// '' escapes a quote: each literal must match exactly the stored
	// text it spells.
	literals := map[string]string{
		"'it''s'":      "it's",
		"''''":         "'",
		"'a''''b'":     "a''b",
		"''":           "",
		"'no escapes'": "no escapes",
		"'trailing'''": "trailing'",
		"'''leading'":  "'leading",
	}
	for _, stored := range literals {
		if _, err := db.Insert("notes", Row{"txt": stored}); err != nil {
			t.Fatal(err)
		}
	}
	for lit, want := range literals {
		q := "SELECT txt FROM notes WHERE txt = " + lit
		res, err := db.Exec(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if len(res.Rows) != 1 || res.Rows[0]["txt"] != want {
			t.Errorf("%s: rows %+v, want exactly %q", q, res.Rows, want)
		}
	}
	// And in IN lists.
	res, err := db.Exec("SELECT COUNT(*) FROM notes WHERE txt IN ('it''s', '''')")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0]["count"].(int64); n != 2 {
		t.Fatalf("escaped IN list matched %d rows, want 2", n)
	}
	// Unterminated strings still error, including one ending mid-escape.
	for _, q := range []string{
		"SELECT * FROM notes WHERE txt = 'open",
		"SELECT * FROM notes WHERE txt = 'open''",
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%s: accepted", q)
		}
	}
}

func TestSQLOrderByTextColumn(t *testing.T) {
	db := edgeDB(t)
	res, err := db.Exec("SELECT name FROM syms WHERE addr > 0 ORDER BY name DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gamma", "delta", "beta", "alpha"}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		if r["name"] != want[i] {
			t.Fatalf("row %d = %v, want %s", i, r["name"], want[i])
		}
	}
	res, err = db.Exec("SELECT name FROM syms ORDER BY name ASC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0]["name"] != "alpha" || res.Rows[1]["name"] != "beta" {
		t.Fatalf("ASC LIMIT: %+v", res.Rows)
	}
	// Bool columns order false before true; the sort is stable, so
	// ties keep insertion order.
	res, err = db.Exec("SELECT name FROM syms ORDER BY hot")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r["name"].(string))
	}
	if fmt.Sprint(got) != "[beta delta alpha gamma]" {
		t.Fatalf("ORDER BY hot = %v", got)
	}
	if _, err := db.Exec("SELECT name FROM syms ORDER BY nosuch"); err == nil {
		t.Fatal("ORDER BY unknown column accepted")
	}
}

// TestSQLConcurrentReadersWriter drives concurrent Exec readers against
// Insert writers on one DB. Run under -race this is the locking contract's
// regression test; without -race it still checks nothing is lost.
func TestSQLConcurrentReadersWriter(t *testing.T) {
	db := New()
	if err := db.CreateTable(Schema{Name: "log", Cols: []Col{{Name: "n", Type: Int}, {Name: "tag", Type: Text}}}); err != nil {
		t.Fatal(err)
	}
	const writers, readers, perWriter = 2, 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Insert("log", Row{"n": w*perWriter + i, "tag": fmt.Sprintf("w%d", w)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				queries := []string{
					"SELECT COUNT(*) FROM log",
					"SELECT * FROM log WHERE tag IN ('w0', 'w1') ORDER BY n DESC LIMIT 5",
					fmt.Sprintf("SELECT * FROM log WHERE n = %d", i),
				}
				if _, err := db.Exec(queries[i%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM log")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0]["count"].(int64); n != writers*perWriter {
		t.Fatalf("lost writes: %d rows, want %d", n, writers*perWriter)
	}
}
