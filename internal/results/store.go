package results

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"potsim/internal/checkpoint"
)

// Store is one CSV table held in memory: its schema and its rows in
// file order. A Store is read-only once opened.
type Store struct {
	path   string
	schema Schema
	rows   [][]Value
}

// Open reads the store at path. With a schema, the header must list
// the schema's column names in order and every cell parses by its
// column's kind. With a nil schema each column's kind is inferred:
// Int64 if every cell parses as an integer, Float64 if every cell
// parses as a float (NaN included), String otherwise. A missing file is
// an error; Open never creates anything.
func Open(path string, schema Schema) (*Store, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, blob, schema)
}

// parse is Open over the file's bytes; path only labels errors.
func parse(path string, blob []byte, schema Schema) (*Store, error) {
	text := string(blob)
	if !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("results: %s:%d: no final newline (torn write?)",
			path, strings.Count(text, "\n")+1)
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if lines[0] == "" {
		return nil, fmt.Errorf("results: %s:1: empty header line", path)
	}
	header, err := splitLine(path, 1, lines[0])
	if err != nil {
		return nil, err
	}
	cells := make([][]string, len(lines)-1)
	for i, ln := range lines[1:] {
		if cells[i], err = splitLine(path, i+2, ln); err != nil {
			return nil, err
		}
		if len(cells[i]) != len(header) {
			return nil, fmt.Errorf("results: %s:%d: %d cells, header has %d", path, i+2, len(cells[i]), len(header))
		}
	}
	if schema == nil {
		schema = make(Schema, len(header))
		for c, name := range header {
			schema[c] = Column{Name: name, Kind: inferKind(cells, c)}
		}
	} else if !namesMatch(header, schema) {
		return nil, fmt.Errorf("results: %s:1: header %s does not match schema %s",
			path, lines[0], strings.Join(schemaNames(schema), ","))
	}
	st := &Store{path: path, schema: schema, rows: make([][]Value, len(cells))}
	for i, row := range cells {
		st.rows[i] = make([]Value, len(row))
		for c, s := range row {
			v, err := parseCell(schema[c].Kind, s)
			if err != nil {
				return nil, fmt.Errorf("results: %s:%d: column %s: %q is not %v",
					path, i+2, schema[c].Name, s, schema[c].Kind)
			}
			st.rows[i][c] = v
		}
	}
	return st, nil
}

// splitLine splits line n into cells. Quoted CSV is not this format: a
// quote would not survive a write back, so it is refused on read too.
func splitLine(path string, n int, line string) ([]string, error) {
	if strings.ContainsRune(line, '"') {
		return nil, fmt.Errorf("results: %s:%d: quoted cells are not supported", path, n)
	}
	return strings.Split(line, ","), nil
}

func namesMatch(header []string, schema Schema) bool {
	if len(header) != len(schema) {
		return false
	}
	for i, c := range schema {
		if header[i] != c.Name {
			return false
		}
	}
	return true
}

func schemaNames(schema Schema) []string {
	names := make([]string, len(schema))
	for i, c := range schema {
		names[i] = c.Name
	}
	return names
}

// inferKind is the narrowest kind every cell of column c parses as.
func inferKind(cells [][]string, c int) Kind {
	for _, k := range [...]Kind{Int64, Float64} {
		ok := true
		for _, row := range cells {
			if _, err := parseCell(k, row[c]); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	return String
}

func parseCell(kind Kind, s string) (Value, error) {
	switch kind {
	case Int64:
		n, err := strconv.ParseInt(s, 10, 64)
		return IntVal(n), err
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		return FloatVal(f), err
	}
	return StrVal(s), nil
}

// Write replaces the store at path with rows under schema, atomically:
// a crash leaves either the old file or the new one. Floats are
// written in the shortest form that parses back to the same bits, so
// Open(path, schema) returns exactly rows. A row whose shape or kinds
// do not match the schema, or a name or string cell holding a comma, a
// quote or a newline, is refused before anything is written.
func Write(path string, schema Schema, rows [][]Value) error {
	blob, err := encode(schema, rows)
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, blob, 0o644)
}

// encode renders rows under schema as the file's bytes.
func encode(schema Schema, rows [][]Value) ([]byte, error) {
	var b bytes.Buffer
	for i, c := range schema {
		if err := checkText(c.Name); err != nil {
			return nil, fmt.Errorf("results: column %d name: %w", i, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	for r, row := range rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("results: row %d has %d cells, schema has %d", r, len(row), len(schema))
		}
		for c, v := range row {
			if v.Kind != schema[c].Kind {
				return nil, fmt.Errorf("results: row %d column %s is %v, cell is %v", r, schema[c].Name, schema[c].Kind, v.Kind)
			}
			if c > 0 {
				b.WriteByte(',')
			}
			switch v.Kind {
			case Int64:
				b.WriteString(strconv.FormatInt(v.Int, 10))
			case Float64:
				b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
			default:
				if err := checkText(v.Str); err != nil {
					return nil, fmt.Errorf("results: row %d column %s: %w", r, schema[c].Name, err)
				}
				b.WriteString(v.Str)
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// checkText refuses text that would not read back as one cell.
func checkText(s string) error {
	if strings.ContainsAny(s, ",\"\n") {
		return fmt.Errorf("%q holds a comma, a quote or a newline", s)
	}
	return nil
}

// Path returns the store's file path.
func (st *Store) Path() string { return st.path }

// Schema returns the store's schema, inferred when Open had none.
func (st *Store) Schema() Schema { return st.schema }

// Rows returns the rows in file order. Callers must not modify them.
func (st *Store) Rows() [][]Value { return st.rows }
