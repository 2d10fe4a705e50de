package webservice

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// finalBody is the terminal scenario body as a client reads it, with
// the results kept raw so they compare byte for byte.
type finalBody struct {
	Status    string          `json:"status"`
	Error     string          `json:"error"`
	Results   json.RawMessage `json:"results"`
	JainIndex float64         `json:"jain_index"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced"`
}

// submitAndFollow POSTs doc and follows the scenario to its terminal
// body, over the SSE stream or by polling the JSON endpoint. It
// returns errors rather than failing, so it runs off the test
// goroutine.
func submitAndFollow(base, doc string, sse bool) (*finalBody, error) {
	resp, err := http.Post(base+"/api/scenarios", "application/json", strings.NewReader(doc))
	if err != nil {
		return nil, err
	}
	var created map[string]string
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST: status %d (%s)", resp.StatusCode, created["error"])
	}
	url := base + "/api/scenarios/" + created["id"]
	if sse {
		return followEvents(url + "/events")
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		var fb finalBody
		err = json.NewDecoder(resp.Body).Decode(&fb)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if fb.Status == "done" || fb.Status == "failed" {
			return &fb, nil
		}
	}
	return nil, fmt.Errorf("%s did not finish in 30s", url)
}

// followEvents holds an SSE stream until its "done" event and decodes
// that event's data.
func followEvents(url string) (*finalBody, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var fb finalBody
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &fb); err != nil {
				return nil, err
			}
			return &fb, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s ended without a done event", url)
}

// TestConcurrentDuplicatesRunOnce: sixteen identical POSTs released at
// one instant by a barrier, half followed over SSE and half by polling,
// run exactly one simulation. The other fifteen coalesce onto it or hit
// the cache, and every client reads byte-identical results. Unlike
// TestCoalescedWaitersMatchSoloRun, nothing orders the arrivals: the
// race detector sees the submissions contend on the flight table.
func TestConcurrentDuplicatesRunOnce(t *testing.T) {
	_, ts := startService(t)
	// Eight agents over an hour: the run outlasts the arrival skew, so
	// most duplicates attach to the flight rather than the cache.
	const doc = `{"testbed":"emulab","algorithm":"gd","agents":8,"stagger_seconds":30,"duration_seconds":3600,"seed":7}`
	const width = 16
	before := scrape(t, ts.URL)["falcon_simulations_total"]

	barrier := make(chan struct{})
	bodies := make([]*finalBody, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for i := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-barrier
			bodies[i], errs[i] = submitAndFollow(ts.URL, doc, i%2 == 0)
		}()
	}
	close(barrier)
	wg.Wait()

	ran, reused := 0, 0
	for i, fb := range bodies {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if fb.Status != "done" {
			t.Fatalf("client %d: status %q (%s)", i, fb.Status, fb.Error)
		}
		if fb.Cached || fb.Coalesced {
			reused++
		} else {
			ran++
		}
		if !bytes.Equal(fb.Results, bodies[0].Results) || fb.JainIndex != bodies[0].JainIndex {
			t.Fatalf("client %d results %s (Jain %v) ≠ client 0 %s (Jain %v)",
				i, fb.Results, fb.JainIndex, bodies[0].Results, bodies[0].JainIndex)
		}
	}
	if ran != 1 || reused != width-1 {
		t.Fatalf("%d clients saw a fresh run and %d a coalesce or cache hit, want 1 and %d", ran, reused, width-1)
	}
	if got := scrape(t, ts.URL)["falcon_simulations_total"] - before; got != 1 {
		t.Fatalf("falcon_simulations_total rose by %v, want 1", got)
	}
}
