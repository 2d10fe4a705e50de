package ftp

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Sink receives transferred file data on the server side.
type Sink interface {
	// WriteAt stores a segment of the file with the given transfer ID.
	// Implementations must be safe for concurrent use (stripes of one
	// file arrive on parallel connections).
	WriteAt(fileID int64, offset int64, data []byte) error
}

// DiscardSink counts received bytes and drops them — the benchmarking
// sink, equivalent to writing to /dev/null.
type DiscardSink struct {
	bytes atomic.Int64
}

// WriteAt implements Sink.
func (d *DiscardSink) WriteAt(_, _ int64, data []byte) error {
	d.bytes.Add(int64(len(data)))
	return nil
}

// DirSink writes each file ID to "<dir>/recv-<id>" using WriteAt, so
// parallel stripes land at their offsets.
type DirSink struct {
	Dir string

	mu    sync.Mutex
	files map[int64]*os.File
}

// WriteAt implements Sink.
func (s *DirSink) WriteAt(fileID, offset int64, data []byte) error {
	f, err := s.file(fileID)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, offset)
	return err
}

func (s *DirSink) file(fileID int64) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.files == nil {
		s.files = make(map[int64]*os.File)
	}
	if f, ok := s.files[fileID]; ok {
		return f, nil
	}
	f, err := os.OpenFile(filepath.Join(s.Dir, fmt.Sprintf("recv-%d", fileID)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	s.files[fileID] = f
	return f, nil
}

// Close closes every open file.
func (s *DirSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	return first
}

// Source provides file contents on the client side.
type Source interface {
	// ReadAt fills buf with the file's bytes starting at offset.
	ReadAt(fileID int64, offset int64, buf []byte) error
}

// PatternSource synthesises deterministic file contents without disk
// I/O: byte i of file f is a cheap mix of f and i. Used by tests,
// benchmarks, and the loopback examples.
type PatternSource struct{}

// ReadAt implements Source.
func (PatternSource) ReadAt(fileID, offset int64, buf []byte) error {
	for i := range buf {
		pos := offset + int64(i)
		buf[i] = byte(fileID*131 + pos*7)
	}
	return nil
}

// DirSource reads file contents from paths registered per file ID.
type DirSource struct {
	mu    sync.Mutex
	paths map[int64]string
}

// ReadAt implements Source.
func (s *DirSource) ReadAt(fileID, offset int64, buf []byte) error {
	s.mu.Lock()
	path, ok := s.paths[fileID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("ftp: no path registered for file %d", fileID)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, offset); err != nil && err != io.EOF {
		return err
	}
	return nil
}

// rateLimiter enforces an approximate bits-per-second budget across
// concurrent users via a token bucket refilled on demand.
type rateLimiter struct {
	mu       sync.Mutex
	rate     float64 // bytes per second
	tokens   float64
	lastFill time.Time
}

// newRateLimiter builds a limiter for rateBits bits/s; nil (unlimited)
// when rateBits ≤ 0.
func newRateLimiter(rateBits float64) *rateLimiter {
	if rateBits <= 0 {
		return nil
	}
	return &rateLimiter{rate: rateBits / 8, lastFill: time.Now()}
}

// wait blocks until n bytes of budget are available and consumes them.
func (l *rateLimiter) wait(n int) {
	if l == nil {
		return
	}
	for {
		l.mu.Lock()
		now := time.Now()
		l.tokens += now.Sub(l.lastFill).Seconds() * l.rate
		l.lastFill = now
		// Cap the burst at 100 ms of budget — but never below the
		// request itself, or a chunk larger than the burst would spin
		// forever.
		maxBurst := l.rate * 0.1
		if maxBurst < float64(n) {
			maxBurst = float64(n)
		}
		if l.tokens > maxBurst {
			l.tokens = maxBurst
		}
		if l.tokens >= float64(n) {
			l.tokens -= float64(n)
			l.mu.Unlock()
			return
		}
		deficit := float64(n) - l.tokens
		l.mu.Unlock()
		sleep := time.Duration(deficit / l.rate * float64(time.Second))
		if sleep < 200*time.Microsecond {
			sleep = 200 * time.Microsecond
		}
		if sleep > 50*time.Millisecond {
			sleep = 50 * time.Millisecond
		}
		// Add tiny jitter so many limiters do not thundering-herd.
		time.Sleep(sleep + time.Duration(rand.Int63n(50))*time.Microsecond)
	}
}
