package dataset

import (
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	d := Uniform("u", 10, 1*GiB)
	if d.Count() != 10 {
		t.Fatalf("Count = %d, want 10", d.Count())
	}
	if d.TotalBytes() != 10*GiB {
		t.Fatalf("TotalBytes = %d, want %d", d.TotalBytes(), int64(10*GiB))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.MeanFileSize() != float64(GiB) {
		t.Fatalf("MeanFileSize = %v, want %v", d.MeanFileSize(), float64(GiB))
	}
	if d.MedianFileSize() != GiB {
		t.Fatalf("MedianFileSize = %v, want %v", d.MedianFileSize(), int64(GiB))
	}
}

func TestUniformPanics(t *testing.T) {
	for _, c := range []struct{ n, size int64 }{{0, 1}, {1, 0}, {-1, 1}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Uniform(%d,%d) did not panic", c.n, c.size)
				}
			}()
			Uniform("x", int(c.n), c.size)
		}()
	}
}

func TestMainDataset(t *testing.T) {
	d := Main()
	if d.Count() != 1000 {
		t.Fatalf("Main count = %d, want 1000", d.Count())
	}
	if d.TotalBytes() != int64(1000*GB) {
		t.Fatalf("Main total = %d, want 1 TB", d.TotalBytes())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSmallDataset(t *testing.T) {
	d := Small(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	total := d.TotalBytes()
	// Within 25% of 120 GiB (rescaling respects per-file bounds, so the
	// total is approximate).
	if total < 90*GiB || total > 150*GiB {
		t.Fatalf("Small total = %d GiB, want ≈120 GiB", total/GiB)
	}
	for i := range d.Count() {
		if s := d.FileSize(i); s < 1*KiB || s > 10*MiB {
			t.Fatalf("Small file size %d outside [1KiB, 10MiB]", s)
		}
	}
}

func TestLargeDataset(t *testing.T) {
	d := Large(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	total := d.TotalBytes()
	if total < 700*GiB || total > 1300*GiB {
		t.Fatalf("Large total = %d GiB, want ≈1 TiB", total/GiB)
	}
	for i := range d.Count() {
		if s := d.FileSize(i); s < 100*MiB || s > 10*GiB {
			t.Fatalf("Large file size %d outside [100MiB, 10GiB]", s)
		}
	}
}

func TestMixedDataset(t *testing.T) {
	d := Mixed(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s, l := Small(1), Large(2)
	if d.Count() != s.Count()+l.Count() {
		t.Fatalf("Mixed count = %d, want %d", d.Count(), s.Count()+l.Count())
	}
}

func TestFriendlinessDataset(t *testing.T) {
	d := Friendliness(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	total := d.TotalBytes()
	if total < 800*GiB || total > 1400*GiB {
		t.Fatalf("Friendliness total = %d GiB, want ≈1.1 TiB", total/GiB)
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a, b := Small(42), Small(42)
	if a.Count() != b.Count() {
		t.Fatal("same seed produced different counts")
	}
	for i := range a.Count() {
		if a.FileSize(i) != b.FileSize(i) {
			t.Fatalf("same seed produced different file %d: %d vs %d bytes", i, a.FileSize(i), b.FileSize(i))
		}
	}
	c := Small(43)
	same := true
	for i := range a.Count() {
		if a.FileSize(i) != c.FileSize(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	if err := (&Dataset{}).Validate(); err == nil {
		t.Error("empty label: Validate did not error")
	}
}

func TestEmptyDatasetAccessors(t *testing.T) {
	d := &Dataset{Label: "empty"}
	if d.TotalBytes() != 0 || d.Count() != 0 || d.MeanFileSize() != 0 || d.MedianFileSize() != 0 {
		t.Fatal("empty dataset accessors should all be zero")
	}
}

// Property: for any valid seed, generated datasets validate and sizes
// stay within the documented bounds.
func TestDatasetBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := Large(seed)
		if d.Validate() != nil {
			return false
		}
		for i := range d.Count() {
			if s := d.FileSize(i); s < 100*MiB || s > 10*GiB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
