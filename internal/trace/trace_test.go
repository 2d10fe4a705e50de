package trace

import (
	"fmt"
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

func TestConvergenceTime(t *testing.T) {
	s := &Series{Name: "cc"}
	// Climbs to 10 at t=5, stays.
	for i := 0; i <= 20; i++ {
		v := float64(i * 2)
		if v > 10 {
			v = 10
		}
		s.Append(float64(i), v)
	}
	if got := s.ConvergenceTime(10, 0.05, 5); got != 5 {
		t.Fatalf("ConvergenceTime = %v, want 5", got)
	}
	if got := s.ConvergenceTime(50, 0.05, 5); got != -1 {
		t.Fatalf("unreached target = %v, want -1", got)
	}
	if got := s.ConvergenceTime(0, 0.05, 5); got != -1 {
		t.Fatalf("zero target = %v, want -1", got)
	}
}

func TestConvergenceTimeResetsOnDeparture(t *testing.T) {
	s := &Series{Name: "cc"}
	s.Append(0, 10)
	s.Append(1, 10)
	s.Append(2, 3) // leaves the band
	for i := 3; i <= 12; i++ {
		s.Append(float64(i), 10)
	}
	if got := s.ConvergenceTime(10, 0.05, 5); got != 3 {
		t.Fatalf("ConvergenceTime = %v, want 3 (after the excursion)", got)
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
