package scenario

import (
	"path/filepath"
	"testing"
)

// FuzzParse: the parser/validator must return errors on malformed
// input — malformed JSON, negative times, unknown references,
// overlapping mutations, overflowing datasets — and never panic. Valid
// documents must be canonical fixed points: re-parsing the canonical
// encoding yields the same hash; those with at most 8 agents must build
// without panicking.
func FuzzParse(f *testing.F) {
	// Every checked-in example is a seed.
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		d, err := ParseFile(path)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		canon, err := d.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canon)
	}
	// Malformed shapes the validator must reject without panicking.
	for _, s := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`{"version":-1}`,
		`{"preset":"emulab","agents":[{}]}{}`,
		`{"preset":"emulab","agents":[{"join_at":-1}]}`,
		`{"preset":"emulab","agents":[{"count":-5}]}`,
		`{"preset":"emulab","duration_seconds":1e308,"agents":[{}]}`,
		`{"preset":"emulab","agents":[{}],"mutations":[{"at":-3,"kind":"rtt","rtt":0.1}]}`,
		`{"preset":"emulab","agents":[{}],"mutations":[{"at":1,"kind":"grow-dataset","agent":"ghost"}]}`,
		`{"preset":"fleet","agents":[{}],"topology":{"nodes":["a"],"links":[{"id":"l","a":"a","b":"zz","capacity":1,"latency":0}],"src":"a","dst":"zz"}}`,
		`{"preset":"fleet","agents":[{}],"topology":{"dumbbell":{"hosts":1,"access_cap":1,"bottleneck_cap":1}},"mutations":[{"at":1,"kind":"cross-traffic","link":"bottleneck","rate":1,"duration_seconds":5},{"at":3,"kind":"cross-traffic","link":"bottleneck","rate":1,"duration_seconds":5}]}`,
	} {
		f.Add([]byte(s))
	}
	// Two billion files must parse and build in constant memory; a
	// dataset whose bytes overflow int64 must be rejected.
	f.Add(emulabWithDataset(f, `{"count": 2000000000}`))
	f.Add(emulabWithDataset(f, `{"count": 2000000000, "size": 5000000000}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data) // must never panic
		if err != nil {
			return
		}
		// A document Parse accepts must be internally consistent:
		// canonicalisable, hashable, and a canonical fixed point.
		h1, err := d.Hash()
		if err != nil {
			t.Fatalf("valid document failed to hash: %v", err)
		}
		canon, err := d.Canonical()
		if err != nil {
			t.Fatalf("valid document failed to canonicalise: %v", err)
		}
		d2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-parse: %v", err)
		}
		h2, err := d2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("canonical round-trip changed the hash: %s vs %s", h1, h2)
		}
		if got, want := d.Sessions(), len(d.AgentIDs()); got != want {
			t.Fatalf("Sessions() = %d, roster has %d", got, want)
		}
		// Small accepted documents build too (Build may still refuse
		// one, e.g. cross-traffic above a link's capacity), so a build
		// path that allocates per file fails on the seeds above.
		if len(d.AgentIDs()) <= 8 {
			d.Build()
		}
	})
}
