package irdb

import "testing"

func setupExt(t *testing.T) *DB {
	t.Helper()
	db := New()
	if err := db.CreateTable(Schema{Name: "pins", Cols: []Col{{Name: "addr", Type: Int}, {Name: "kind", Type: Text}}}); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		addr int
		kind string
	}{
		{0x1030, "export"},
		{0x1000, "entry"},
		{0x1090, "data"},
		{0x1060, "data"},
		{0x1010, "immediate"},
	} {
		if _, err := db.Insert("pins", Row{"addr": row.addr, "kind": row.kind}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOrderByAscDesc(t *testing.T) {
	db := setupExt(t)
	res, err := db.Exec("SELECT addr FROM pins ORDER BY addr")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0x1000, 0x1010, 0x1030, 0x1060, 0x1090}
	for i, w := range want {
		if res.Rows[i]["addr"].(int64) != w {
			t.Fatalf("asc order wrong: %+v", res.Rows)
		}
	}
	res, err = db.Exec("SELECT addr FROM pins ORDER BY addr DESC")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if res.Rows[len(want)-1-i]["addr"].(int64) != w {
			t.Fatalf("desc order wrong: %+v", res.Rows)
		}
	}
	res, err = db.Exec("SELECT kind FROM pins ORDER BY kind ASC LIMIT 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0]["kind"].(string) != "data" {
		t.Fatalf("string order: %v %+v", err, res.Rows)
	}
}

func TestLimit(t *testing.T) {
	db := setupExt(t)
	res, err := db.Exec("SELECT * FROM pins LIMIT 2")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("limit: %v, %d rows", err, len(res.Rows))
	}
	res, err = db.Exec("SELECT * FROM pins LIMIT 0")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("limit 0: %v, %d rows", err, len(res.Rows))
	}
	res, err = db.Exec("SELECT * FROM pins LIMIT 99")
	if err != nil || len(res.Rows) != 5 {
		t.Fatalf("limit over: %v, %d rows", err, len(res.Rows))
	}
}

func TestCountStar(t *testing.T) {
	db := setupExt(t)
	res, err := db.Exec("SELECT COUNT(*) FROM pins")
	if err != nil || len(res.Rows) != 1 || res.Rows[0]["count"].(int64) != 5 {
		t.Fatalf("count: %v %+v", err, res.Rows)
	}
	res, err = db.Exec("SELECT COUNT(*) FROM pins WHERE kind = 'data'")
	if err != nil || res.Rows[0]["count"].(int64) != 2 {
		t.Fatalf("filtered count: %v %+v", err, res.Rows)
	}
}

func TestOrderByCombinesWithWhere(t *testing.T) {
	db := setupExt(t)
	res, err := db.Exec("SELECT addr FROM pins WHERE addr > 0x1010 ORDER BY addr DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0]["addr"].(int64) != 0x1090 || res.Rows[1]["addr"].(int64) != 0x1060 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestSQLExtensionErrors(t *testing.T) {
	db := setupExt(t)
	bad := []string{
		"SELECT addr FROM pins ORDER addr",
		"SELECT addr FROM pins ORDER BY nosuch",
		"SELECT addr FROM pins LIMIT 'x'",
		"SELECT addr FROM pins LIMIT -1",
		"SELECT COUNT(* FROM pins",
		"SELECT COUNT(addr) FROM pins",
		"SELECT addr FROM pins ORDER BY addr garbage",
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", q)
		}
	}
}
