package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Manifest I/O: real transfer tools describe datasets as file lists.
// WriteManifest and ReadManifest round-trip a dataset through the
// two-column CSV form `name,bytes`, so cmd tools can operate on
// externally supplied workloads instead of only synthetic generators.

// WriteManifest emits the dataset as CSV with a header row.
func WriteManifest(w io.Writer, d *Dataset) error {
	if d == nil {
		return fmt.Errorf("dataset: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "bytes"}); err != nil {
		return err
	}
	for i := range d.Count() {
		if err := cw.Write([]string{d.FileName(i), strconv.FormatInt(d.FileSize(i), 10)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadManifest parses a CSV manifest into a dataset with the given
// label and validates it.
func ReadManifest(r io.Reader, label string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading manifest: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: empty manifest")
	}
	start := 0
	if records[0][0] == "name" && records[0][1] == "bytes" {
		start = 1
	}
	d := &Dataset{Label: label}
	for i, rec := range records[start:] {
		size, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: manifest row %d: bad size %q", i+start+1, rec[1])
		}
		d.Files = append(d.Files, File{Name: rec[0], Size: size})
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
