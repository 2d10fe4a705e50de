package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// emulabWithDataset returns examples/scenarios/emulab.json with its one
// agent's dataset set to the given JSON object.
func emulabWithDataset(tb testing.TB, dataset string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "emulab.json"))
	if err != nil {
		tb.Fatal(err)
	}
	agent := []byte(`{"algorithm": "gd"}`)
	if bytes.Count(raw, agent) != 1 {
		tb.Fatalf("emulab.json no longer holds exactly one %s agent", agent)
	}
	return bytes.Replace(raw, agent, []byte(`{"algorithm": "gd", "dataset": `+dataset+`}`), 1)
}

// TestHugeDatasetBuildsInConstantAllocations: a dataset's file count
// costs nothing to validate or build — two billion files build in the
// allocations twenty do, give or take the few map buckets that vary
// with the hash seed.
func TestHugeDatasetBuildsInConstantAllocations(t *testing.T) {
	build := func(count int) float64 {
		d, err := Parse(emulabWithDataset(t, `{"count": `+strconv.Itoa(count)+`}`))
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		var run *Run
		allocs := testing.AllocsPerRun(5, func() {
			if run, err = d.Build(); err != nil {
				t.Fatal(err)
			}
		})
		if got := run.Participants[0].Task.RemainingFiles(); got != count {
			t.Fatalf("built dataset has %d files, want %d", got, count)
		}
		return allocs
	}
	if small, huge := build(20), build(2_000_000_000); huge > small+8 {
		t.Fatalf("Build allocates %v objects for 2e9 files, %v for 20", huge, small)
	}
}

// TestDatasetBoundsRejected: a dataset or grow batch whose bytes
// overflow int64, alone or summed onto the agent's dataset, or whose
// files overflow the engine's int32 file counter, fails Parse with an
// error naming the agent or the mutation.
func TestDatasetBoundsRejected(t *testing.T) {
	cases := []struct {
		doc  string
		want string
	}{
		{string(emulabWithDataset(t, `{"count": 2000000000, "size": 5000000000}`)), `agents[0] (id "agent1")`},
		{string(emulabWithDataset(t, `{"count": 3000000000, "size": 1}`)), `agents[0] (id "agent1")`},
		{`{"preset":"emulab","agents":[{"id":"a"}],"mutations":[{"at":1,"kind":"grow-dataset","agent":"a","grow":{"count":4,"size":4611686018427387904}}]}`,
			`mutation 0 (grow-dataset) grows agent "a"`},
		{`{"preset":"emulab","agents":[{"id":"a","dataset":{"count":1000000000,"size":9000000000}}],"mutations":[{"at":1,"kind":"grow-dataset","agent":"a","grow":{"count":1,"size":300000000000000000}}]}`,
			`mutation 0 (grow-dataset) grows agent "a"`},
		{`{"preset":"emulab","agents":[{"id":"a","count":2,"dataset":{"count":2147483000}}],"mutations":[{"at":1,"kind":"grow-dataset","agent":"a2","grow":{"count":500,"size":1}},{"at":2,"kind":"grow-dataset","agent":"a2","grow":{"count":500,"size":1}}]}`,
			`mutation 1 (grow-dataset) grows agent "a2"`},
	}
	for i, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("case %d accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not name %s", i, err, c.want)
		}
	}
	// At the bounds, the same shapes are accepted.
	for _, doc := range []string{
		string(emulabWithDataset(t, `{"count": 2147483647, "size": 4294967298}`)),
		`{"preset":"emulab","agents":[{"id":"a","count":2,"dataset":{"count":2147483000}}],"mutations":[{"at":1,"kind":"grow-dataset","agent":"a2","grow":{"count":600,"size":1}},{"at":2,"kind":"grow-dataset","agent":"a1","grow":{"count":600,"size":1}}]}`,
	} {
		if _, err := Parse([]byte(doc)); err != nil {
			t.Errorf("document at the bounds rejected: %v", err)
		}
	}
}
