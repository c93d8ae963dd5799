// Package warehouse is the structured-data substrate of BIVoC: typed
// in-memory tables with schemas, primary keys, exact and fuzzy secondary
// indexes, grouped aggregation and CSV export.
//
// The paper's engagements link VoC documents against warehouse tables
// (customers, transactions, reservations, credit cards). The linking
// engine needs two capabilities from the warehouse: typed attribute
// access and fast candidate generation for a possibly-garbled token
// (fuzzy indexes) — both provided here.
package warehouse

import (
	"fmt"
	"strconv"
	"sync"
)

// ColumnType is the storage type of a column.
type ColumnType uint8

// Column storage types.
const (
	TypeString ColumnType = iota
	TypeInt
	TypeFloat
)

// MatchKind declares how the linking engine should compare a document
// token against this column — the "best similarity measure available for
// specific attributes" plug-in point of §IV.B.
type MatchKind uint8

// Match kinds.
const (
	// MatchExact: identifiers, categories; equality only.
	MatchExact MatchKind = iota
	// MatchName: person/place names; phonetic + edit-distance matching.
	MatchName
	// MatchText: free-ish text such as addresses; n-gram matching.
	MatchText
	// MatchDigits: phone numbers, card numbers; digit-subsequence match.
	MatchDigits
	// MatchNumeric: amounts; relative-proximity match.
	MatchNumeric
)

// Column describes one attribute of a table.
type Column struct {
	Name  string
	Type  ColumnType
	Match MatchKind
}

// Schema is an ordered list of columns with a primary-key column.
type Schema struct {
	Table   string
	Columns []Column
	// Key is the name of the primary-key column (must be TypeString or
	// TypeInt and unique across rows).
	Key string
}

// col returns the index of the named column, or -1.
func (s Schema) col(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants of the schema.
func (s Schema) Validate() error {
	if s.Table == "" {
		return fmt.Errorf("warehouse: schema needs a table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("warehouse: table %s has no columns", s.Table)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("warehouse: table %s has an unnamed column", s.Table)
		}
		if seen[c.Name] {
			return fmt.Errorf("warehouse: table %s repeats column %s", s.Table, c.Name)
		}
		seen[c.Name] = true
	}
	if s.Key != "" && !seen[s.Key] {
		return fmt.Errorf("warehouse: table %s key %s is not a column", s.Table, s.Key)
	}
	return nil
}

// Value is one typed cell. Str always holds the string form; Num holds
// the numeric value for int/float columns.
type Value struct {
	Str   string
	Num   float64
	IsNum bool
}

// StringValue wraps a string cell.
func StringValue(s string) Value { return Value{Str: s} }

// IntValue wraps an integer cell.
func IntValue(i int64) Value {
	return Value{Str: strconv.FormatInt(i, 10), Num: float64(i), IsNum: true}
}

// RowID identifies a row within its table (stable across the table's
// lifetime; rows are append-only as in a warehouse fact table).
type RowID int32

// Row is one record.
type Row struct {
	vals []Value
}

// Table is an append-only typed table with a primary key and secondary
// indexes.
type Table struct {
	schema  Schema
	rows    []Row
	pk      map[string]RowID
	keyCol  int
	indexes map[string]*index // column name → fuzzy/exact index
	// features caches per-column derived match features (lowercase form,
	// word phones, n-gram sets, ...) so the linking engine never
	// re-derives them per comparison. Columns are materialized lazily on
	// the first Features call — ingest-only pipelines that never link a
	// column pay nothing for it — then kept aligned by Insert.
	featMu   sync.RWMutex
	features map[string][]MatchFeatures
}

// NewTable creates an empty table, building an index for every column
// whose MatchKind benefits from one.
func NewTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		schema:   schema,
		pk:       make(map[string]RowID),
		keyCol:   -1,
		indexes:  make(map[string]*index),
		features: make(map[string][]MatchFeatures),
	}
	if schema.Key != "" {
		t.keyCol = schema.col(schema.Key)
	}
	for _, c := range schema.Columns {
		t.indexes[c.Name] = newIndex(c.Match)
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Insert appends a row given values in schema column order. It enforces
// arity, basic type shape and primary-key uniqueness.
func (t *Table) Insert(vals ...Value) (RowID, error) {
	if len(vals) != len(t.schema.Columns) {
		return 0, fmt.Errorf("warehouse: %s expects %d values, got %d",
			t.schema.Table, len(t.schema.Columns), len(vals))
	}
	for i, c := range t.schema.Columns {
		if (c.Type == TypeInt || c.Type == TypeFloat) && !vals[i].IsNum {
			return 0, fmt.Errorf("warehouse: %s.%s expects a numeric value, got %q",
				t.schema.Table, c.Name, vals[i].Str)
		}
	}
	id := RowID(len(t.rows))
	if t.keyCol >= 0 {
		k := vals[t.keyCol].Str
		if _, dup := t.pk[k]; dup {
			return 0, fmt.Errorf("warehouse: %s duplicate key %q", t.schema.Table, k)
		}
		t.pk[k] = id
	}
	t.rows = append(t.rows, Row{vals: vals})
	for i, c := range t.schema.Columns {
		t.indexes[c.Name].add(vals[i].Str, id)
	}
	t.featMu.Lock()
	for i, c := range t.schema.Columns {
		if feats, ok := t.features[c.Name]; ok {
			t.features[c.Name] = append(feats, matchFeatures(c.Match, vals[i].Str))
		}
	}
	t.featMu.Unlock()
	return id, nil
}

// MustInsert is Insert for generator code where schema mismatches are
// programming errors.
func (t *Table) MustInsert(vals ...Value) RowID {
	id, err := t.Insert(vals...)
	if err != nil {
		panic(err)
	}
	return id
}

// Get returns the value of the named column in row id.
func (t *Table) Get(id RowID, column string) (Value, bool) {
	ci := t.schema.col(column)
	if ci < 0 || int(id) < 0 || int(id) >= len(t.rows) {
		return Value{}, false
	}
	return t.rows[id].vals[ci], true
}

// GetString returns the string form of a cell ("" if absent).
func (t *Table) GetString(id RowID, column string) string {
	v, _ := t.Get(id, column)
	return v.Str
}

// CandidatesAppend finds the row ids whose value in column plausibly
// matches the (possibly garbled) token, via the column's fuzzy index —
// the candidate-generation primitive that lets the linker avoid scoring
// every entity (§IV.B: "the highest-scoring entity can be determined
// efficiently, without computing scores explicitly for all entities"). It
// appends the sorted, duplicate-free ids to buf[:0] and returns the
// (possibly grown) slice: the linking engine calls it once per (token,
// attribute) pair, so reusing one buffer across the loop removes a
// per-lookup allocation from the hot path.
func (t *Table) CandidatesAppend(buf []RowID, column, token string) []RowID {
	idx, ok := t.indexes[column]
	if !ok {
		return buf[:0]
	}
	return idx.lookupAppend(buf[:0], token)
}

// AggStats holds the aggregate of a numeric column within one group.
type AggStats struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (0 when empty).
func (a AggStats) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Aggregate groups rows by groupCol and aggregates the numeric column
// valueCol per group — the warehouse-side rollup behind reports like
// "booking cost by vehicle type" (the §V structured fields include
// booking cost and duration).
func (t *Table) Aggregate(groupCol, valueCol string) map[string]AggStats {
	out := make(map[string]AggStats)
	gi, vi := t.schema.col(groupCol), t.schema.col(valueCol)
	if gi < 0 || vi < 0 {
		return out
	}
	for _, r := range t.rows {
		key := r.vals[gi].Str
		v := r.vals[vi].Num
		st, ok := out[key]
		if !ok {
			st = AggStats{Min: v, Max: v}
		}
		st.Count++
		st.Sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		out[key] = st
	}
	return out
}
