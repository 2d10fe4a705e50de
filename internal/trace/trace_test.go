package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSeriesAppendAndStats(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(0, 1)
	s.Append(1, 3)
	s.Append(2, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := s.MeanAfter(1); got != 4 {
		t.Fatalf("MeanAfter(1) = %v, want 4", got)
	}
	if got := s.MeanAfter(99); got != 0 {
		t.Fatalf("MeanAfter(99) = %v, want 0", got)
	}
	if got := s.Values(); len(got) != 3 || got[2] != 5 {
		t.Fatalf("Values = %v", got)
	}
	if got := (&Series{}).Mean(); got != 0 {
		t.Fatalf("empty Mean = %v", got)
	}
}

func TestSeriesAppendOutOfOrderPanics(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order append did not panic")
		}
	}()
	s.Append(4, 1)
}

// TestAppendRejectsNaNTime: a NaN time panics as an out-of-order time
// does — as the first point, after ordered points, and in place of the
// 5, NaN, 1 sequence that used to leave [5, NaN, 1] — and the refused
// append leaves the series as it was.
func TestAppendRejectsNaNTime(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		times []float64
	}{
		{"first point", nil},
		{"after ordered points", []float64{1, 2, 2}},
		{"5, NaN, 1", []float64{5}},
	} {
		s := &Series{Name: "x"}
		for _, tm := range tc.times {
			s.Append(tm, 1)
		}
		if !appendPanics(s, nan) {
			t.Errorf("%s: NaN time appended without a panic", tc.name)
		}
		if len(s.Points) != len(tc.times) {
			t.Errorf("%s: %d points after the refused append, want %d", tc.name, len(s.Points), len(tc.times))
		}
	}
	s := &Series{Name: "x"}
	s.Append(5, 1)
	appendPanics(s, nan)
	if !appendPanics(s, 1) {
		t.Error("1 appended after 5 (and a refused NaN) without a panic")
	}
}

// appendPanics reports whether s.Append(tm, 0) panics.
func appendPanics(s *Series, tm float64) (did bool) {
	defer func() { did = recover() != nil }()
	s.Append(tm, 0)
	return false
}

func TestSeriesBetween(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i))
	}
	sub := s.Between(3, 6)
	if sub.Len() != 3 || sub.Points[0].Time != 3 || sub.Points[2].Time != 5 {
		t.Fatalf("Between = %+v", sub.Points)
	}
}

// TestMeanBetweenMatchesBetween: on seeded series built by Append, with
// runs of duplicate times and values of mixed sign and magnitude (so a
// different summation order would show in the last bits), MeanBetween
// equals Between(t0, t1).Mean() bitwise for windows that start and end
// on points, between points and outside the series, and for empty and
// inverted windows.
func TestMeanBetweenMatchesBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := &Series{Name: "x"}
		tm := rng.Float64()*10 - 5
		for n := rng.Intn(60); n > 0; n-- {
			if rng.Intn(3) > 0 { // one point in three repeats the last time
				tm += 0.5 * float64(1+rng.Intn(4))
			}
			s.Append(tm, (rng.Float64()-0.3)*math.Pow(10, float64(rng.Intn(12)-6)))
		}
		// Window edges: every point's time, the midpoints between
		// neighbours, and values before the first and after the last.
		edges := []float64{math.Inf(-1), -100, 100, math.Inf(1)}
		for i, p := range s.Points {
			edges = append(edges, p.Time)
			if i > 0 {
				edges = append(edges, (p.Time+s.Points[i-1].Time)/2)
			}
		}
		for k := 0; k < 50; k++ {
			t0, t1 := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
			want := s.Between(t0, t1).Mean()
			if got := s.MeanBetween(t0, t1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: MeanBetween(%v, %v) = %v, Between.Mean = %v (%d points)", trial, t0, t1, got, want, s.Len())
			}
		}
	}
	s := &Series{Name: "x"}
	for i := 0; i < 120; i++ {
		s.Append(float64(i/2), float64(i))
	}
	sink := 0.0
	if allocs := testing.AllocsPerRun(100, func() { sink += s.MeanBetween(10.5, 50) }); allocs != 0 {
		t.Fatalf("MeanBetween allocates %v times per call", allocs)
	}
	if sink == 0 {
		t.Fatal("MeanBetween summed nothing")
	}
}

func TestTimeSetGetLookupNames(t *testing.T) {
	ts := &TimeSet{}
	a := ts.Get("b-series")
	if ts.Get("b-series") != a {
		t.Fatal("Get created a duplicate")
	}
	ts.Get("a-series")
	if ts.Lookup("ghost") != nil {
		t.Fatal("Lookup of unknown name returned non-nil")
	}
	names := ts.Names()
	if len(names) != 2 || names[0] != "a-series" || names[1] != "b-series" {
		t.Fatalf("Names = %v", names)
	}
}

func TestWriteCSV(t *testing.T) {
	ts := &TimeSet{}
	ts.Get("x").Append(0, 1)
	ts.Get("x").Append(1, 2)
	ts.Get("y").Append(1, 5)
	var b strings.Builder
	if err := ts.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "time,x,y\n0,1,\n1,2,5\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestASCIIChart(t *testing.T) {
	ts := &TimeSet{}
	for i := 0; i < 10; i++ {
		ts.Get("ramp").Append(float64(i), float64(i))
	}
	chart := ts.ASCIIChart(20, 6)
	if !strings.Contains(chart, "a = ramp") {
		t.Fatalf("chart missing legend:\n%s", chart)
	}
	if !strings.Contains(chart, "a") {
		t.Fatal("chart missing data marks")
	}
	if got := (&TimeSet{}).ASCIIChart(20, 6); got != "(empty chart)\n" {
		t.Fatalf("empty chart = %q", got)
	}
}

// TestAdoptIndexesLikeGet: series adopted in batches — four shards'
// worth, as a shard merge hands them over — are indexed by Get's rule,
// so every name resolves through the index rather than a scan.
func TestAdoptIndexesLikeGet(t *testing.T) {
	var ts TimeSet
	small := &Series{Name: "only"}
	ts.Adopt(small)
	if ts.index != nil {
		t.Fatal("a one-series set built a name index")
	}
	var all []*Series
	for k := 0; k < 4; k++ {
		batch := make([]*Series, 300)
		for i := range batch {
			batch[i] = &Series{Name: fmt.Sprintf("s%d-%03d", k, i)}
		}
		ts.Adopt(batch...)
		all = append(all, batch...)
	}
	if len(ts.index) != len(all)+1 {
		t.Fatalf("index holds %d names, want %d", len(ts.index), len(all)+1)
	}
	for _, s := range all {
		if ts.index[s.Name] != s || ts.Lookup(s.Name) != s {
			t.Fatalf("%s does not resolve to its series through the index", s.Name)
		}
	}
	if ts.Lookup("only") != small {
		t.Fatal("the series adopted before the index was built does not resolve")
	}
}
