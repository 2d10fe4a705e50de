package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/webservice"
)

// serviceSection is the web service behind a loopback listener, driven
// closed-loop by serviceClients clients from this process. Set-up
// generates the request list, starts a fresh service and completes the
// hot documents; the pass is each client working through its sequence.
func serviceSection(seed int64, sz serviceSizes) section {
	return section{name: "service", prepare: func() (passFunc, func(), error) {
		rig, err := startService(genRequests(seed, sz))
		if err != nil {
			return nil, nil, err
		}
		return rig.pass, rig.stop, nil
	}}
}

// serviceRig is one running service with its clients.
type serviceRig struct {
	svc     *webservice.Service
	srv     *http.Server
	served  chan struct{}
	base    string
	clients [serviceClients]*http.Client
	list    *requestList
}

func startService(list *requestList) (*serviceRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serviceRig{
		svc:    webservice.NewWithOptions(webservice.Options{Workers: runtime.NumCPU()}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		list:   list,
	}
	rig.srv = &http.Server{Handler: rig.svc.Handler()}
	go func() {
		defer close(rig.served)
		rig.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for c := range rig.clients {
		// One connection per client, kept alive: an SSE stream occupies
		// it until the stream ends, like any other request.
		rig.clients[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	for i, body := range list.Prime {
		res := rig.submit(rig.clients[i%serviceClients], request{Class: classHit, Body: body}, nil)
		if res.err != nil {
			rig.stop()
			return nil, fmt.Errorf("prime hot document %d: %w", i, res.err)
		}
	}
	return rig, nil
}

// stop drains the service and waits for the server goroutine and every
// background simulation to end.
func (rig *serviceRig) stop() {
	rig.svc.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rig.srv.Shutdown(ctx); err != nil {
		rig.srv.Close()
	}
	<-rig.served
	rig.svc.Close()
	for _, c := range rig.clients {
		c.CloseIdleConnections()
	}
}

// view is the part of a scenario body the client inspects. Results
// stays raw so two bodies compare byte for byte.
type view struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Error     string          `json:"error"`
	Results   json.RawMessage `json:"results"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced"`
}

// followed is one submission followed to its end.
type followed struct {
	class string
	// issued → accepted is the POST up to its 202 body; accepted → done
	// is following the scenario to its terminal body.
	issued, accepted, done time.Time
	view                   view
	sseEvents              int // session events seen on the stream; -1 when polled
	// sseMismatch says the stream's terminal body was not the body a GET
	// returned right after it.
	sseMismatch bool
	err         error
}

var (
	statusDone   = []byte(`"status":"done"`)
	statusFailed = []byte(`"status":"failed"`)
)

func terminal(body []byte) bool {
	return bytes.Contains(body, statusDone) || bytes.Contains(body, statusFailed)
}

// submit POSTs one request and follows it to its terminal body. before
// runs just ahead of the POST (the dup barrier), outside the latency.
func (rig *serviceRig) submit(c *http.Client, req request, before func()) followed {
	res := followed{class: req.Class, sseEvents: -1}
	if before != nil {
		before()
	}
	res.issued = time.Now()
	resp, err := c.Post(rig.base+"/api/scenarios", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		res.err = err
		return res
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.accepted = time.Now()
	if err != nil {
		res.err = err
		return res
	}
	var created struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(accepted, &created) != nil || created.ID == "" {
		res.err = fmt.Errorf("POST answered %d %s", resp.StatusCode, bytes.TrimSpace(accepted))
		return res
	}
	var body []byte
	if req.SSE {
		body, res.sseEvents, res.err = rig.followSSE(c, created.ID)
	} else {
		body, res.err = rig.poll(c, created.ID)
	}
	res.done = time.Now()
	if res.err != nil {
		return res
	}
	if req.SSE {
		// Checked here and not after the pass, while the bounded store
		// still holds the scenario; a GET of a finished scenario is a
		// ten-thousandth of a pass.
		polled, err := rig.get(c, "/api/scenarios/"+created.ID)
		res.sseMismatch = err != nil || !bytes.Equal(polled, body)
	}
	res.err = json.Unmarshal(body, &res.view)
	return res
}

func (rig *serviceRig) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(rig.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return bytes.TrimSpace(body), nil
}

// poll GETs the scenario until its body is terminal: at once, then
// backing off from 100 µs to 2 ms, so a finished scenario costs one
// GET and a 60 ms one is seen within a few percent of its end.
func (rig *serviceRig) poll(c *http.Client, id string) ([]byte, error) {
	wait := 100 * time.Microsecond
	deadline := time.Now().Add(60 * time.Second)
	for {
		body, err := rig.get(c, "/api/scenarios/"+id)
		if err != nil {
			return nil, err
		}
		if terminal(body) {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("scenario %s still not terminal after 60 s", id)
		}
		time.Sleep(wait)
		if wait < 2*time.Millisecond {
			wait *= 2
		}
	}
}

// followSSE holds the scenario's event stream until its terminal
// "done" event and returns that event's body and the number of session
// events before it.
func (rig *serviceRig) followSSE(c *http.Client, id string) (body []byte, events int, err error) {
	resp, err := c.Get(rig.base + "/api/scenarios/" + id + "/events")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET events of %s answered %d", id, resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			if body != nil && errors.Is(err, io.EOF) {
				return body, events, nil
			}
			return nil, events, fmt.Errorf("event stream of %s ended before done: %w", id, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
			if event == "session" {
				events++
			}
		case bytes.HasPrefix(line, []byte("data: ")) && event == "done":
			// Keep reading to the end of the stream so the connection
			// goes back to the pool.
			body = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// scrape reads the service's counters from /metrics.
func (rig *serviceRig) scrape() (map[string]float64, error) {
	text, err := rig.get(rig.clients[0], "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// barrier lets the clients meet before a dup pair's POSTs.
type barrier struct {
	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func newBarrier() *barrier { return &barrier{release: make(chan struct{})} }

func (b *barrier) wait() {
	b.mu.Lock()
	b.waiting++
	if b.waiting == serviceClients {
		b.waiting = 0
		close(b.release)
		b.release = make(chan struct{})
		b.mu.Unlock()
		return
	}
	ch := b.release
	b.mu.Unlock()
	<-ch
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (rig *serviceRig) pass(tc *traceCtx) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, attempted: rig.list.total()}
	before, err := rig.scrape()
	if err != nil {
		return nil, err
	}

	results := [serviceClients][]followed{}
	meet := newBarrier()
	root := tc.begin("webservice.pass")
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs := rig.list.Clients[c]
			results[c] = make([]followed, len(reqs))
			for i, req := range reqs {
				var wait func()
				if req.Class == classDup {
					wait = meet.wait
				}
				results[c][i] = rig.submit(rig.clients[c], req, wait)
				if r := &results[c][i]; tc != nil && r.err == nil {
					id := tc.tr.add("webservice.request."+req.Class, r.issued, r.done, root, tc.pass)
					tc.tr.add("webservice.post", r.issued, r.accepted, id, tc.pass)
					tc.tr.add("webservice.follow", r.accepted, r.done, id, tc.pass)
				}
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	tc.end(root)

	after, err := rig.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	// Checking, outside the pass's clock.
	lat := map[string][]float64{}
	post := map[string][]float64{}
	follow := map[string][]float64{}
	h := sha256.New()
	streams, events := 0, 0
	for c := range results {
		for i := range results[c] {
			r := &results[c][i]
			if r.err != nil {
				out.fail("%s request %d of client %d: %v", r.class, i, c, r.err)
				continue
			}
			if r.view.Status != "done" {
				out.fail("%s request %d of client %d ended %q: %s", r.class, i, c, r.view.Status, r.view.Error)
				continue
			}
			if r.class == classHit && !r.view.Cached {
				out.fail("hit request %d of client %d was not served from the cache", i, c)
			}
			if r.sseEvents >= 0 {
				streams++
				events += r.sseEvents
				if r.sseMismatch {
					out.fail("%s request %d of client %d: SSE terminal body differs from the polled body", r.class, i, c)
				}
			}
			class := r.class
			if class == classDup {
				class = classHeavy
			}
			lat[class] = append(lat[class], ms(r.done.Sub(r.issued)))
			post[class] = append(post[class], us(r.accepted.Sub(r.issued)))
			follow[class] = append(follow[class], us(r.done.Sub(r.accepted)))
			// Hash results in list order; ids and cached/coalesced
			// flags depend on arrival order and stay out.
			fmt.Fprintf(h, "%d/%d %s ", c, i, r.class)
			h.Write(r.view.Results)
		}
	}
	out.sha = hex.EncodeToString(h.Sum(nil))

	// A dup pair is one simulation and two byte-equal results.
	for i, req := range rig.list.Clients[0] {
		if req.Class != classDup {
			continue
		}
		a, b := &results[0][i], &results[1][i]
		if a.err != nil || b.err != nil {
			continue // already counted
		}
		if !bytes.Equal(a.view.Results, b.view.Results) {
			out.fail("dup pair at %d: results differ between the clients", i)
		}
		if !a.view.Cached && !a.view.Coalesced && !b.view.Cached && !b.view.Coalesced {
			out.fail("dup pair at %d: both submissions simulated", i)
		}
	}
	light, heavy, dup := rig.list.count(classLight), rig.list.count(classHeavy), rig.list.count(classDup)
	if want := float64(light + heavy + dup/serviceClients); delta("falcon_simulations_total") != want {
		out.fail("falcon_simulations_total rose by %v, want %v (light + heavy + dup pairs)", delta("falcon_simulations_total"), want)
	}

	out.e2e["requests_per_s"] = float64(rig.list.total()) / out.wall
	for _, class := range serviceClasses {
		xs := lat[class]
		sort.Float64s(xs)
		if len(xs) == 0 {
			continue
		}
		out.e2e[class+"_p50_ms"] = percentile(xs, 50)
		if highestPercentile(len(xs)) >= 99 {
			out.e2e[class+"_p99_ms"] = percentile(xs, 99)
		}
	}

	if tc != nil {
		out.layer = map[string]float64{}
		for _, class := range serviceClasses {
			sort.Float64s(post[class])
			sort.Float64s(follow[class])
			out.layer["webservice.post_us.p50."+class] = percentile(post[class], 50)
			out.layer["webservice.follow_us.p50."+class] = percentile(follow[class], 50)
		}
		hits, misses := delta("falcon_cache_hits_total"), delta("falcon_cache_misses_total")
		if hits+misses > 0 {
			out.layer["webservice.cache.hit_ratio"] = hits / (hits + misses)
		}
		out.layer["webservice.coalesce.ratio"] = delta("falcon_coalesce_hits_total") / float64(rig.list.total())
		out.layer["webservice.simulations"] = delta("falcon_simulations_total")
		out.layer["webservice.store.evictions"] = delta("falcon_store_evictions_total")
		if streams > 0 {
			out.layer["webservice.sse.events_per_stream"] = float64(events) / float64(streams)
		}
	}
	return out, nil
}
