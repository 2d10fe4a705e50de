package transfer

import (
	"testing"
	"testing/quick"
)

func validSample() Sample {
	return Sample{
		Setting:    Setting{Concurrency: 4, Parallelism: 2, Pipelining: 1},
		Duration:   3,
		Throughput: 8e9,
		Loss:       0.01,
		Time:       42,
	}
}

func TestSamplePerConnThroughput(t *testing.T) {
	s := validSample()
	// t_i = aggregate / concurrency = 8e9 / 4.
	if got := s.PerConnThroughput(); got != 2e9 {
		t.Fatalf("PerConnThroughput = %v, want 2e9", got)
	}
	s.Setting.Concurrency = 0
	if got := s.PerConnThroughput(); got != 0 {
		t.Fatalf("degenerate PerConnThroughput = %v, want 0", got)
	}
}

func TestSampleValidate(t *testing.T) {
	if err := validSample().Validate(); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Sample)
	}{
		{"invalid setting", func(s *Sample) { s.Setting.Concurrency = 0 }},
		{"zero duration", func(s *Sample) { s.Duration = 0 }},
		{"negative throughput", func(s *Sample) { s.Throughput = -1 }},
		{"loss above 1", func(s *Sample) { s.Loss = 1.5 }},
		{"negative loss", func(s *Sample) { s.Loss = -0.1 }},
	}
	for _, c := range cases {
		s := validSample()
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate did not error", c.name)
		}
	}
}

// Property: PerConnThroughput × concurrency reconstructs the aggregate.
func TestPerConnThroughputConsistencyProperty(t *testing.T) {
	f := func(cc uint8, tput uint32) bool {
		n := int(cc%32) + 1
		s := Sample{
			Setting:    Setting{Concurrency: n, Parallelism: 1, Pipelining: 1},
			Duration:   1,
			Throughput: float64(tput),
		}
		recon := s.PerConnThroughput() * float64(n)
		diff := recon - s.Throughput
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-6*(s.Throughput+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskAccessors(t *testing.T) {
	ds := smallDS()
	task, err := NewTask("t", ds, DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	if task.Dataset() != ds {
		t.Fatal("Dataset accessor wrong")
	}
}
