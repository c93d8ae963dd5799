package warehouse

import (
	"encoding/csv"
	"fmt"
	"io"
)

// DB is a named collection of tables — the "structured database" side of
// every BIVoC engagement.
type DB struct {
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// CreateTable adds a table with the schema, failing on duplicates.
func (db *DB) CreateTable(schema Schema) (*Table, error) {
	if _, exists := db.tables[schema.Table]; exists {
		return nil, fmt.Errorf("warehouse: table %s already exists", schema.Table)
	}
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	db.tables[schema.Table] = t
	return t, nil
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// MustTable returns a table that is known to exist.
func (db *DB) MustTable(name string) *Table {
	t, ok := db.tables[name]
	if !ok {
		panic("warehouse: missing table " + name)
	}
	return t
}

// ExportCSV writes the table as CSV with a header row.
func (t *Table) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.rows {
		rec := make([]string, len(r.vals))
		for i, v := range r.vals {
			rec[i] = v.Str
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
