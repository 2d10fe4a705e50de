package webservice

import (
	"math"
	"net/http"
	"slices"
	"strconv"
)

// handleEvents streams a scenario's event feed as server-sent events
// (GET /api/scenarios/{id}/events): the retained records are replayed,
// live appends follow as they happen, and a terminal "done" event
// carries the scenario's final published body before the stream
// closes. Live clients hold one connection instead of polling the
// progress endpoint; the record sequence is exactly the feed the
// polled view folds, so the two endpoints agree event for event.
//
// Wire shape:
//
//	event: session
//	data: {"kind":"sample","agent":"agent1","time":35,"gbps":0.097,...}
//
//	event: done
//	data: {"id":"s0001","status":"done","results":[...],...}
//
// On service drain the stream ends with an empty "shutdown" event so
// clients can distinguish a clean server shutdown from a drop.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	sc := s.lookup(r.PathValue("id"))
	if sc == nil {
		http.NotFound(w, r)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.met.sseClients.Add(1)
	defer s.met.sseClients.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	idx := 0
	var buf []byte
	for {
		// State before feed: runs finish the feed before publishing (waiters
		// after their leader), so terminal here means the tail is complete.
		st := sc.snap()
		recs, tabs, wait := sc.progress.tail(idx)
		// Encode outside the tracker's lock into one sseChunk buffer per
		// Write, so replaying a long feed holds one chunk, not the feed.
		for len(recs) > 0 {
			buf = slices.Grow(buf[:0], sseChunk)
			n, ok := 0, true
			for ; ok && n < len(recs) && len(buf) <= sseChunk-sseFrameRoom; n++ {
				e := tabs.raise(recs[n])
				buf, ok = appendSessionFrame(buf, e, tabs.names[e.agent])
			}
			// A record json.Marshal refuses ends the stream (!ok).
			if !s.writeSSE(w, buf) || !ok {
				return
			}
			flusher.Flush()
			recs, idx = recs[n:], idx+n
		}
		if wait == nil {
			continue
		}
		if s.parked != nil {
			s.parked(sc)
		}
		// Feed is drained and was terminal before the tail: the stream
		// completes with the final body.
		if st.terminal() {
			s.writeSSE(w, appendSSE(buf[:0], "done", st.body))
			flusher.Flush()
			return
		}
		select {
		case <-wait:
		case <-sc.done:
		case <-r.Context().Done():
			return
		case <-s.draining:
			s.writeSSE(w, appendSSE(buf[:0], "shutdown", []byte("{}")))
			flusher.Flush()
			return
		}
	}
}

// Frames are appended to a stream's sseChunk buffer while sseFrameRoom
// bytes are left (a frame is ~90 bytes plus the agent ID).
const sseChunk, sseFrameRoom = 64 << 10, 512

// writeSSE writes encoded events in one Write, counting it, and
// reports failure so the stream loop can stop on a gone client.
func (s *Service) writeSSE(w http.ResponseWriter, events []byte) bool {
	s.met.sseWrites.Add(1)
	_, err := w.Write(events)
	return err == nil
}

// appendSSE appends one server-sent event.
func appendSSE(b []byte, event string, data []byte) []byte {
	b = append(append(append(b, "event: "...), event...), "\ndata: "...)
	return append(append(b, data...), "\n\n"...)
}

// appendSessionFrame appends rec as the "session" event that
// appendSSE(b, "session", json.Marshal(EventRecord)) gives, byte for
// byte; name is the agent's JSON-encoded ID. Like json.Marshal it
// refuses a non-finite float (false, b unchanged).
func appendSessionFrame(b []byte, rec feedEntry, name []byte) ([]byte, bool) {
	for _, f := range [...]float64{rec.time, rec.gbps, rec.loss} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return b, false
		}
	}
	b = append(b, "event: session\ndata: {\"kind\":\""...)
	b = append(b, feedKinds[rec.kind]...)
	b = append(append(b, `","agent":`...), name...)
	b = appendJSONFloat(append(b, `,"time":`...), rec.time)
	if rec.gbps != 0 {
		b = appendJSONFloat(append(b, `,"gbps":`...), rec.gbps)
	}
	if rec.loss != 0 {
		b = appendJSONFloat(append(b, `,"loss":`...), rec.loss)
	}
	if rec.concurrency != 0 {
		b = strconv.AppendInt(append(b, `,"concurrency":`...), int64(rec.concurrency), 10)
	}
	return append(b, "}\n\n"...), true
}

// appendJSONFloat is encoding/json's float64 encoding: shortest 'f', or
// 'e' below 1e-6 and from 1e21 in magnitude, written 1e-7 not 1e-07.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
