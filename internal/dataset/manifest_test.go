package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	orig := Uniform("rt", 25, 3*MiB)
	var buf bytes.Buffer
	if err := WriteManifest(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != orig.Count() || got.TotalBytes() != orig.TotalBytes() {
		t.Fatalf("round trip changed dataset: %d/%d files, %d/%d bytes",
			got.Count(), orig.Count(), got.TotalBytes(), orig.TotalBytes())
	}
	for i := range got.Count() {
		if got.FileName(i) != orig.FileName(i) || got.FileSize(i) != orig.FileSize(i) {
			t.Fatalf("file %d differs: %s/%d vs %s/%d",
				i, got.FileName(i), got.FileSize(i), orig.FileName(i), orig.FileSize(i))
		}
	}
}

func TestWriteManifestValidation(t *testing.T) {
	if err := WriteManifest(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil dataset accepted")
	}
	bad := &Dataset{Label: "b", Files: []File{{Name: "", Size: 1}}}
	if err := WriteManifest(&bytes.Buffer{}, bad); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestReadManifestErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad size", "name,bytes\nf1,notanumber\n"},
		{"zero size", "name,bytes\nf1,0\n"},
		{"duplicate", "name,bytes\nf1,10\nf1,20\n"},
		{"wrong columns", "a,b,c\n1,2,3\n"},
	}
	for _, c := range cases {
		if _, err := ReadManifest(strings.NewReader(c.in), "x"); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestReadManifestWithoutHeader(t *testing.T) {
	d, err := ReadManifest(strings.NewReader("f1,100\nf2,200\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != 2 || d.TotalBytes() != 300 {
		t.Fatalf("dataset = %d files, %d bytes", d.Count(), d.TotalBytes())
	}
}
