package irdb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	err := db.CreateTable(Schema{
		Name: "insn",
		Cols: []Col{
			{Name: "addr", Type: Int},
			{Name: "mnem", Type: Text},
			{Name: "bytes", Type: Bytes},
			{Name: "pinned", Type: Bool},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInsertSelectRoundTrip(t *testing.T) {
	db := newTestDB(t)
	id, err := db.Insert("insn", Row{"addr": 0x1000, "mnem": "nop", "pinned": true})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := db.Insert("insn", Row{"addr": uint32(0x1004), "mnem": "ret"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", id, id2)
	}
	rows, err := db.Select("insn", nil)
	if err != nil || len(rows) != 2 {
		t.Fatalf("select = %d rows (%v), want 2", len(rows), err)
	}
	r := rows[0]
	if r["id"].(int64) != id || r["addr"].(int64) != 0x1000 || r["mnem"].(string) != "nop" || r["pinned"].(bool) != true {
		t.Fatalf("row = %+v", r)
	}
	if b, ok := r["bytes"].([]byte); !ok || b != nil {
		t.Fatalf("missing column default wrong: %+v", r["bytes"])
	}
	if rows[1]["addr"].(int64) != 0x1004 || rows[1]["pinned"].(bool) {
		t.Fatalf("second row = %+v", rows[1])
	}
	rows, _ = db.Select("insn", func(r Row) bool { return r["mnem"] == "ret" })
	if len(rows) != 1 || rows[0]["id"].(int64) != id2 {
		t.Fatalf("predicate select = %+v", rows)
	}
}

func TestErrorsAPI(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Insert("nope", Row{}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("insert into missing table: %v", err)
	}
	if _, err := db.Insert("insn", Row{"bogus": 1}); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("insert bad column: %v", err)
	}
	if _, err := db.Insert("insn", Row{"addr": "str"}); !errors.Is(err, ErrBadType) {
		t.Fatalf("insert bad type: %v", err)
	}
	if _, err := db.Insert("insn", Row{"id": 5}); err == nil {
		t.Fatal("explicit id should fail")
	}
	if err := db.CreateTable(Schema{Name: "insn"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate table: %v", err)
	}
	if err := db.CreateTable(Schema{Name: "t2", Cols: []Col{{Name: "id", Type: Int}}}); err == nil {
		t.Fatal("redeclared id should fail")
	}
	if err := db.CreateTable(Schema{Name: "t3", Cols: []Col{{Name: "a", Type: Int}, {Name: "a", Type: Int}}}); err == nil {
		t.Fatal("duplicate column should fail")
	}
	if _, err := db.Select("nope", nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("select from missing table: %v", err)
	}
}

func TestSelectReturnsCopies(t *testing.T) {
	db := newTestDB(t)
	db.Insert("insn", Row{"mnem": "nop"})
	rows, _ := db.Select("insn", nil)
	rows[0]["mnem"] = "corrupted"
	rows, _ = db.Select("insn", nil)
	if rows[0]["mnem"].(string) != "nop" {
		t.Fatal("Select leaked internal row storage")
	}
}

func TestSQLEndToEnd(t *testing.T) {
	db := New()
	err := db.CreateTable(Schema{Name: "funcs", Cols: []Col{
		{Name: "name", Type: Text}, {Name: "entry", Type: Int}, {Name: "leaf", Type: Bool},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{
		{"name": "main", "entry": 0x1000, "leaf": false},
		{"name": "helper", "entry": 4112, "leaf": true},
		{"name": "exit", "entry": 4200, "leaf": true},
	} {
		if _, err := db.Insert("funcs", r); err != nil {
			t.Fatal(err)
		}
	}
	mustExec := func(q string) Result {
		t.Helper()
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("Exec(%q): %v", q, err)
		}
		return res
	}

	res := mustExec("SELECT * FROM funcs WHERE leaf = TRUE")
	if len(res.Rows) != 2 {
		t.Fatalf("leaf query = %d rows, want 2", len(res.Rows))
	}
	if got := strings.Join(res.Cols, ","); got != "id,entry,leaf,name" {
		t.Fatalf("SELECT * columns = %s, want id then the schema's sorted", got)
	}
	res = mustExec("select name from funcs where entry >= 4112 and entry < 4200")
	if len(res.Rows) != 1 || res.Rows[0]["name"].(string) != "helper" {
		t.Fatalf("range query rows = %+v", res.Rows)
	}
	if _, has := res.Rows[0]["entry"]; has {
		t.Fatal("projection leaked unselected column")
	}
	res = mustExec("SELECT name, entry FROM funcs WHERE leaf != TRUE AND entry <= 0x1000")
	if len(res.Rows) != 1 || res.Rows[0]["name"].(string) != "main" || res.Rows[0]["entry"].(int64) != 0x1000 {
		t.Fatalf("multi-column projection rows = %+v", res.Rows)
	}
	res = mustExec("SELECT * FROM funcs WHERE entry > -1")
	if len(res.Rows) != 3 || res.Rows[2]["id"].(int64) != 3 {
		t.Fatalf("negative literal rows = %+v", res.Rows)
	}
}

// TestSQLRejectsWrites: the IRDB is a read-only dump, so every statement
// other than SELECT is an unsupported-statement error that leaves the
// table untouched.
func TestSQLRejectsWrites(t *testing.T) {
	db := New()
	if err := db.CreateTable(Schema{Name: "t", Cols: []Col{{Name: "a", Type: Int}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", Row{"a": 1}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"CREATE TABLE u (a INT)",
		"INSERT INTO t (a) VALUES (2)",
		"UPDATE t SET a = 2 WHERE a = 1",
		"DELETE FROM t WHERE a = 1",
		"insert into t (a) values (3)",
	} {
		_, err := db.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "unsupported statement") {
			t.Errorf("Exec(%q) = %v, want unsupported statement", q, err)
		}
	}
	res, err := db.Exec("SELECT a FROM t")
	if err != nil || len(res.Rows) != 1 || res.Rows[0]["a"].(int64) != 1 {
		t.Fatalf("table changed by rejected writes: %v %+v", err, res.Rows)
	}
}

func TestSQLStrings(t *testing.T) {
	db := New()
	if err := db.CreateTable(Schema{Name: "t", Cols: []Col{{Name: "s", Type: Text}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", Row{"s": "he llo; world"}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT * FROM t WHERE s = 'he llo; world'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("string match failed: %v, %d rows", err, len(res.Rows))
	}
	res, err = db.Exec("SELECT * FROM t WHERE s != 'x'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("!= failed: %v", err)
	}
}

func TestSQLErrors(t *testing.T) {
	db := New()
	if err := db.CreateTable(Schema{Name: "t", Cols: []Col{{Name: "a", Type: Int}}}); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"DROP TABLE t",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * t",
		"SELECT * FROM missing",
		"SELECT nosuch FROM t",
		"SELECT a, FROM t",
		"SELECT * FROM t garbage",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a = 0xzz",
		"SELECT * FROM t WHERE a ~ 3",
		"SELECT * FROM t WHERE 'lit' = a",
		"SELECT * FROM t WHERE a = nosuchword",
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", q)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id, err := db.Insert("insn", Row{"addr": g*1000 + i})
				if err != nil {
					t.Error(err)
					return
				}
				if rows, err := db.Select("insn", func(r Row) bool { return r["id"] == id }); err != nil || len(rows) != 1 {
					t.Errorf("own row %d: %d rows (%v)", id, len(rows), err)
					return
				}
				if _, err := db.Select("insn", func(r Row) bool { return r["addr"].(int64)%7 == 0 }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rows, _ := db.Select("insn", nil)
	if len(rows) != 800 {
		t.Fatalf("count = %d, want 800", len(rows))
	}
}

func TestQuickInsertLookupConsistency(t *testing.T) {
	// Property: after inserting N rows with arbitrary int keys, a SELECT
	// on the key finds exactly the rows with that key.
	f := func(keys []int16) bool {
		db := New()
		if err := db.CreateTable(Schema{Name: "t", Cols: []Col{{Name: "k", Type: Int}}}); err != nil {
			return false
		}
		want := map[int64]int64{}
		for _, k := range keys {
			if _, err := db.Insert("t", Row{"k": int64(k)}); err != nil {
				return false
			}
			want[int64(k)]++
		}
		for k, n := range want {
			res, err := db.Exec(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k = %d", k))
			if err != nil || res.Rows[0]["count"].(int64) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
