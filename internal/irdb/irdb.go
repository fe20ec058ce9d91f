// Package irdb implements the Intermediate Representation Database in
// the role the paper gives its SQL-based IRDB: the place pipeline results
// are stored for tools to query. The pipeline dumps its IR here when
// asked (zipr.Config.CaptureIR, through ir.SaveToDB), and tools read it
// back with SELECT queries (package file sql.go). The engine is a small
// in-memory, append-only relational store with typed schemas and
// auto-increment primary keys.
package irdb

import (
	"errors"
	"fmt"
	"sync"
)

// ColType is the type of a column.
type ColType uint8

// Column types.
const (
	Int   ColType = iota + 1 // int64
	Text                     // string
	Bytes                    // []byte
	Bool                     // bool
)

// Col describes one column of a table.
type Col struct {
	Name string
	Type ColType
}

// Schema describes a table. Every table has an implicit auto-increment
// primary key column "id" of type Int; it must not be redeclared.
type Schema struct {
	Name string
	Cols []Col
}

// Row is a single record keyed by column name. The "id" key is present
// on rows returned from the database.
type Row map[string]any

// Errors returned by database operations.
var (
	ErrNoTable   = errors.New("irdb: no such table")
	ErrBadColumn = errors.New("irdb: no such column")
	ErrBadType   = errors.New("irdb: value has wrong type for column")
	ErrExists    = errors.New("irdb: table already exists")
)

// DB is an in-memory relational database. It is safe for concurrent use:
// a Report hands its DB to callers, who may query it from several
// goroutines.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

type table struct {
	schema Schema
	cols   map[string]ColType
	rows   []Row // insertion order; row i has id i+1
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable registers a new table.
func (db *DB) CreateTable(s Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, s.Name)
	}
	cols := map[string]ColType{"id": Int}
	for _, c := range s.Cols {
		if c.Name == "id" {
			return fmt.Errorf("irdb: table %s redeclares implicit column id", s.Name)
		}
		if _, dup := cols[c.Name]; dup {
			return fmt.Errorf("irdb: table %s duplicates column %s", s.Name, c.Name)
		}
		if c.Type < Int || c.Type > Bool {
			return fmt.Errorf("irdb: table %s column %s has bad type", s.Name, c.Name)
		}
		cols[c.Name] = c.Type
	}
	db.tables[s.Name] = &table{schema: s, cols: cols}
	return nil
}

// checkVal normalizes a value to the column's canonical Go type.
func checkVal(t ColType, v any) (any, error) {
	switch t {
	case Int:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case uint32:
			return int64(x), nil
		case uint64:
			return int64(x), nil
		}
	case Text:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case Bytes:
		if b, ok := v.([]byte); ok {
			return append([]byte(nil), b...), nil
		}
	case Bool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: %T", ErrBadType, v)
}

// zero returns the zero value for a column type.
func zero(t ColType) any {
	switch t {
	case Int:
		return int64(0)
	case Text:
		return ""
	case Bytes:
		return []byte(nil)
	case Bool:
		return false
	}
	return nil
}

// Insert adds a row and returns its id. Missing columns get zero values;
// unknown columns are an error.
func (db *DB) Insert(tableName string, r Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	stored := Row{}
	for name, v := range r {
		ct, ok := t.cols[name]
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrBadColumn, tableName, name)
		}
		if name == "id" {
			return 0, errors.New("irdb: cannot insert explicit id")
		}
		nv, err := checkVal(ct, v)
		if err != nil {
			return 0, fmt.Errorf("column %s: %w", name, err)
		}
		stored[name] = nv
	}
	for _, c := range t.schema.Cols {
		if _, ok := stored[c.Name]; !ok {
			stored[c.Name] = zero(c.Type)
		}
	}
	id := int64(len(t.rows)) + 1
	stored["id"] = id
	t.rows = append(t.rows, stored)
	return id, nil
}

func copyRow(r Row) Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Select returns copies of all rows matching pred, in insertion order.
// A nil pred matches everything.
func (db *DB) Select(tableName string, pred func(Row) bool) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	var out []Row
	for _, r := range t.rows {
		if pred == nil || pred(r) {
			out = append(out, copyRow(r))
		}
	}
	return out, nil
}
