package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// ReadCSV parses a relation from CSV with a header row naming the
// attributes. Every record must have the header's arity; ragged rows are
// an error rather than silently padded, because a shifted row would
// corrupt every FD statistic downstream.
func ReadCSV(r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate arity ourselves for a better error
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty CSV input")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	schema, err := NewSchema(header...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		if len(rec) != schema.Arity() {
			return nil, fmt.Errorf("dataset: CSV line %d has %d fields, want %d", line, len(rec), schema.Arity())
		}
		rel.MustAppend(Tuple(rec))
	}
	return rel, nil
}

// ReadCSVFile opens and parses a CSV file.
func ReadCSVFile(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteCSV emits the relation as CSV with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.schema.names); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	t := make(Tuple, len(r.cols))
	for i := 0; i < r.NumRows(); i++ {
		for j, c := range r.cols {
			t[j] = c.vals[c.codes[i]]
		}
		if err := cw.Write(t); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flushing CSV: %w", err)
	}
	return nil
}

// WriteCSVFile writes the relation to a file, creating or truncating it.
func (r *Relation) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
