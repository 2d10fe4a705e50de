// Package dataset describes and synthesises the file collections used
// throughout the paper's evaluation: the main 1000×1 GB dataset, and
// the small / large / mixed datasets of §4.4 (multi-parameter
// optimization). Datasets carry only metadata: file sizes, which is
// all the simulator reads. A real transfer names its files with File.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Common size units in bytes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
	TiB = 1 << 40

	// GB and TB are the decimal units the paper uses for its main
	// "1000 × 1 GB" dataset.
	GB = 1e9
	TB = 1e12
)

// File is one transferable file of a real transfer (internal/ftp): a
// name and a size in bytes.
type File struct {
	Name string
	Size int64
}

// Dataset is an ordered collection of file sizes, built by this
// package; no per-file name is ever stored. Read files through Count
// and FileSize. Datasets are treated as immutable once built: the
// synthesizers in this package may return the same *Dataset to
// multiple callers (and to concurrent sweep workers), so callers must
// not modify Label after construction.
type Dataset struct {
	// Label identifies the dataset in experiment output (e.g. "small").
	Label string

	// The files are sizes in order, then each run in order. sizes holds
	// no pointers, so the GC never scans it; a uniform dataset is one
	// run and costs O(1) at any count.
	sizes []int64
	runs  []run
	count int

	// total and validated are set while a dataset is being
	// constructed inside this package (before the pointer is
	// published), so concurrent readers need no locking; a Dataset
	// assembled by hand leaves them zero: it holds no files.
	total     int64
	validated bool
}

// run is count consecutive files of one size.
type run struct {
	count int
	size  int64
}

// TotalBytes returns the sum of all file sizes.
func (d *Dataset) TotalBytes() int64 { return d.total }

// Count returns the number of files.
func (d *Dataset) Count() int { return d.count }

// FileSize returns the size in bytes of file i, 0 ≤ i < Count().
func (d *Dataset) FileSize(i int) int64 {
	d.checkIndex(i)
	if i < len(d.sizes) {
		return d.sizes[i]
	}
	i -= len(d.sizes)
	for _, r := range d.runs {
		if i < r.count {
			return r.size
		}
		i -= r.count
	}
	panic("unreachable")
}

func (d *Dataset) checkIndex(i int) {
	if i < 0 || i >= d.count {
		panic(fmt.Sprintf("dataset %q: file %d out of range [0, %d)", d.Label, i, d.count))
	}
}

// TailBytes returns the total size of the last k files, 0 ≤ k ≤
// Count(). The runs answer in O(runs), not O(k).
func (d *Dataset) TailBytes(k int) int64 {
	var t int64
	for j := len(d.runs) - 1; j >= 0 && k > 0; j-- {
		n := min(k, d.runs[j].count)
		t += int64(n) * d.runs[j].size
		k -= n
	}
	for _, s := range d.sizes[len(d.sizes)-k:] {
		t += s
	}
	return t
}

// MeanFileSize returns the average file size in bytes, or 0 when empty.
func (d *Dataset) MeanFileSize() float64 {
	if d.Count() == 0 {
		return 0
	}
	return float64(d.TotalBytes()) / float64(d.Count())
}

// MedianFileSize returns the median file size in bytes (the upper
// median for an even count), or 0 when empty.
func (d *Dataset) MedianFileSize() int64 {
	if d.Count() == 0 {
		return 0
	}
	// Sort (size, multiplicity) groups, so a run counts once however
	// many files it holds.
	groups := make([]run, 0, len(d.sizes)+len(d.runs))
	for _, s := range d.sizes {
		groups = append(groups, run{1, s})
	}
	groups = append(groups, d.runs...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].size < groups[j].size })
	k := d.Count() / 2
	for _, g := range groups {
		if k < g.count {
			return g.size
		}
		k -= g.count
	}
	panic("unreachable")
}

// Validate checks structural invariants: a non-empty label. Datasets
// from this package's synthesizers are valid by construction and
// return immediately.
func (d *Dataset) Validate() error {
	if !d.validated && d.Label == "" {
		return fmt.Errorf("dataset: empty label")
	}
	return nil
}

// BatchBytes returns count × size, the bytes of a batch of count files
// of one size, and whether that is a positive int64 (count and size
// both ≥ 1, product without overflow).
func BatchBytes(count int, size int64) (int64, bool) {
	if count < 1 || size < 1 || int64(count) > math.MaxInt64/size {
		return 0, false
	}
	return int64(count) * size, true
}

// Grow returns a new dataset holding d's files followed by count more
// files of the given size; d itself is unchanged, since datasets are
// shared: the new dataset gains one run. It returns an error for a
// count or size below 1, or a total that overflows int64.
func (d *Dataset) Grow(count int, size int64) (*Dataset, error) {
	// Every file holds at least one byte, so a byte total that fits
	// int64 bounds the file count too.
	add, ok := BatchBytes(count, size)
	n, total := d.Count(), d.TotalBytes()
	if !ok || add > math.MaxInt64-total {
		return nil, fmt.Errorf("dataset %q: cannot grow by %d files of %d bytes: both must be ≥ 1 and the total fit int64",
			d.Label, count, size)
	}
	runs := make([]run, len(d.runs), len(d.runs)+1)
	copy(runs, d.runs)
	return &Dataset{
		Label: d.Label, sizes: d.sizes, runs: append(runs, run{count, size}),
		count: n + count, total: total + add, validated: true,
	}, nil
}

// Uniform returns a dataset of count files, each of the given size. It
// is O(1) in time and memory at any count: one run, no per-file state.
// It panics on a count or size below 1, or a total that overflows
// int64.
func Uniform(label string, count int, size int64) *Dataset {
	if count <= 0 {
		panic(fmt.Sprintf("dataset: Uniform count %d must be positive", count))
	}
	if size <= 0 {
		panic(fmt.Sprintf("dataset: Uniform size %d must be positive", size))
	}
	total, ok := BatchBytes(count, size)
	if !ok {
		panic(fmt.Sprintf("dataset: Uniform %d files of %d bytes overflows int64", count, size))
	}
	return &Dataset{Label: label, runs: []run{{count, size}}, count: count, total: total, validated: true}
}

// Main returns the paper's principal evaluation dataset: 1000 × 1 GB.
func Main() *Dataset { return Uniform("main", 1000, int64(GB)) }

// randomSized builds count files with sizes drawn log-uniformly from
// [minSize, maxSize], then rescales so the total matches totalBytes.
func randomSized(label string, rng *rand.Rand, count int, minSize, maxSize, totalBytes int64) *Dataset {
	sizes := make([]int64, count)
	var sum int64
	logMin, logMax := float64(minSize), float64(maxSize)
	for i := range sizes {
		// Log-uniform: heavy representation of small sizes, as real
		// scientific datasets exhibit.
		u := rng.Float64()
		size := int64(logMin * math.Pow(logMax/logMin, u))
		if size < minSize {
			size = minSize
		}
		if size > maxSize {
			size = maxSize
		}
		sizes[i] = size
		sum += size
	}
	// Rescale to hit the requested total while respecting bounds.
	scale := float64(totalBytes) / float64(sum)
	for i := range sizes {
		s := int64(float64(sizes[i]) * scale)
		if s < minSize {
			s = minSize
		}
		if s > maxSize {
			s = maxSize
		}
		sizes[i] = s
	}
	return fromSizes(label, sizes)
}

// fromSizes seals a synthetic dataset over sizes, which it keeps.
func fromSizes(label string, sizes []int64) *Dataset {
	d := &Dataset{Label: label, sizes: sizes, count: len(sizes), validated: true}
	for _, s := range sizes {
		d.total += s
	}
	return d
}

// seededKey identifies one seeded synthesizer result for interning.
type seededKey struct {
	kind string
	seed int64
}

// seededCache interns the seeded synthesizers' results: generation is
// deterministic per seed and the outputs are immutable, so trials that
// share a seed share the dataset instead of regenerating tens of
// thousands of files.
var seededCache sync.Map // seededKey -> *Dataset

func internSeeded(kind string, seed int64, build func() *Dataset) *Dataset {
	key := seededKey{kind, seed}
	if v, ok := seededCache.Load(key); ok {
		return v.(*Dataset)
	}
	v, _ := seededCache.LoadOrStore(key, build())
	return v.(*Dataset)
}

// Small returns the §4.4 "small" dataset: files 1 KiB – 10 MiB,
// ~120 GiB total. The seed makes generation deterministic.
func Small(seed int64) *Dataset {
	return internSeeded("small", seed, func() *Dataset {
		rng := rand.New(rand.NewSource(seed))
		// 120 GiB of files averaging ~2.4 MiB each → ~50k files. That is
		// representative (the paper stresses "lots of small files") while
		// staying cheap to simulate.
		return randomSized("small", rng, 50000, 1*KiB, 10*MiB, 120*GiB)
	})
}

// Large returns the §4.4 "large" dataset: files 100 MiB – 10 GiB,
// ~1 TiB total.
func Large(seed int64) *Dataset {
	return internSeeded("large", seed, func() *Dataset {
		rng := rand.New(rand.NewSource(seed))
		return randomSized("large", rng, 700, 100*MiB, 10*GiB, 1*TiB)
	})
}

// Mixed returns the §4.4 "mixed" dataset: the union of Small and Large
// (~1.2 TiB total).
func Mixed(seed int64) *Dataset {
	return internSeeded("mixed", seed, func() *Dataset {
		s, l := Small(seed), Large(seed+1)
		sizes := make([]int64, 0, len(s.sizes)+len(l.sizes))
		return fromSizes("mixed", append(append(sizes, s.sizes...), l.sizes...))
	})
}

// Friendliness returns the §4.5 dataset: 1.1 TiB of files between
// 100 MiB and 10 GiB.
func Friendliness(seed int64) *Dataset {
	return internSeeded("friendliness", seed, func() *Dataset {
		rng := rand.New(rand.NewSource(seed))
		return randomSized("friendliness", rng, 770, 100*MiB, 10*GiB, 1100*GiB)
	})
}
