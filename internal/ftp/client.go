package ftp

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/transfer"
)

// Client uploads a dataset to a Server, exposing the three Falcon knobs
// live: Apply changes concurrency (active file workers), parallelism
// (stripes per file), and pipelining (control-channel command prefetch)
// while the transfer runs. Client satisfies session.Environment, the
// wall-clock contract session.Run drives.
type Client struct {
	// Addr is the server address.
	Addr string
	// Source provides file contents. Required.
	Source Source
	// Files is the dataset to send. Required, non-empty.
	Files []dataset.File
	// PerProcRate, when positive, throttles each file's aggregate send
	// rate (bits/s) — the per-process I/O cap that makes concurrency
	// worthwhile on loopback.
	PerProcRate float64
	// MaxWorkers is the worker-pool size and thus the maximum
	// concurrency Apply can set. Default 64.
	MaxWorkers int
	// RetryLimit is how many times a failed stripe (dropped
	// connection, dial failure, checksum mismatch) is retried before
	// the transfer aborts. Default 3.
	RetryLimit int
	// SkipCompleted marks file IDs already delivered by a previous
	// session (see Checkpoint): workers complete them instantly
	// without sending bytes — transfer resume.
	SkipCompleted map[int64]bool

	mu      sync.Mutex
	setting transfer.Setting
	sem     *resizableSemaphore

	nextFile  atomic.Int64
	completed atomic.Int64
	announced atomic.Int64
	bytesSent atomic.Int64
	retries   atomic.Int64

	acks     []chan struct{}
	ctrl     net.Conn
	ctrlW    *bufio.Writer
	ctrlMu   sync.Mutex
	announce chan struct{} // kicks the announcer
	pool     *connPool

	doneMu    sync.Mutex
	doneFiles map[int64]bool

	started  bool
	done     chan struct{}
	doneOnce sync.Once
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// Start validates the configuration, connects the control channel, and
// launches the transfer with the given initial setting. It returns
// immediately; use Wait, Done, and Measure to follow progress.
func (c *Client) Start(initial transfer.Setting) error {
	if err := initial.Validate(); err != nil {
		return err
	}
	if c.Source == nil {
		return errors.New("ftp: client needs a source")
	}
	if len(c.Files) == 0 {
		return errors.New("ftp: client needs files")
	}
	for i, f := range c.Files {
		if f.Size <= 0 {
			return fmt.Errorf("ftp: file %d has size %d", i, f.Size)
		}
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 64
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 3
	}
	if initial.Concurrency > c.MaxWorkers {
		return fmt.Errorf("ftp: concurrency %d exceeds MaxWorkers %d", initial.Concurrency, c.MaxWorkers)
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return errors.New("ftp: client already started")
	}
	c.started = true
	c.setting = initial
	c.mu.Unlock()

	conn, err := net.Dial("tcp", c.Addr)
	if err != nil {
		return fmt.Errorf("ftp: dial control: %w", err)
	}
	c.ctrl = conn
	c.ctrlW = bufio.NewWriter(conn)
	if _, err := fmt.Fprintf(c.ctrlW, "%s\n", hdrCtrl); err != nil {
		conn.Close()
		return err
	}
	if err := c.ctrlW.Flush(); err != nil {
		conn.Close()
		return err
	}

	c.done = make(chan struct{})
	c.stop = make(chan struct{})
	c.announce = make(chan struct{}, 1)
	c.sem = newResizableSemaphore(initial.Concurrency)
	c.pool = newConnPool(c.Addr, c.MaxWorkers)
	c.doneFiles = make(map[int64]bool, len(c.SkipCompleted))
	c.acks = make([]chan struct{}, len(c.Files))
	for i := range c.acks {
		c.acks[i] = make(chan struct{})
	}

	c.wg.Add(2)
	go c.ackReader()
	go c.announcer()
	for w := 0; w < c.MaxWorkers; w++ {
		c.wg.Add(1)
		go c.worker()
	}
	return nil
}

// Apply implements session.Env: it retunes the live transfer.
func (c *Client) Apply(s transfer.Setting) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Concurrency > c.MaxWorkers {
		return fmt.Errorf("ftp: concurrency %d exceeds MaxWorkers %d", s.Concurrency, c.MaxWorkers)
	}
	c.mu.Lock()
	c.setting = s
	c.mu.Unlock()
	c.sem.Resize(s.Concurrency)
	c.kickAnnouncer()
	return nil
}

// Setting returns the currently applied setting.
func (c *Client) Setting() transfer.Setting {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setting
}

// Measure implements session.Environment: it observes throughput over
// roughly d (cut short if the transfer finishes) and reports zero loss
// — the application layer on loopback is sender-limited (§3.1's L=0
// case).
func (c *Client) Measure(d time.Duration) (transfer.Sample, error) {
	if c.done == nil {
		return transfer.Sample{}, errors.New("ftp: Measure before Start")
	}
	startBytes := c.bytesSent.Load()
	startT := time.Now()
	select {
	case <-time.After(d):
	case <-c.done:
	}
	elapsed := time.Since(startT).Seconds()
	if elapsed <= 0 {
		elapsed = d.Seconds()
	}
	bytes := c.bytesSent.Load() - startBytes
	return transfer.Sample{
		Setting:    c.Setting(),
		Duration:   elapsed,
		Throughput: float64(bytes) * 8 / elapsed,
		Loss:       0,
		Time:       float64(time.Now().UnixNano()) / 1e9,
	}, c.Err()
}

// Done implements session.Env.
func (c *Client) Done() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the transfer completes or fails and returns the
// first error, if any.
func (c *Client) Wait() error {
	if c.done == nil {
		return errors.New("ftp: Wait before Start")
	}
	<-c.done
	c.shutdown()
	return c.Err()
}

// BytesSent returns the number of payload bytes sent so far (including
// any bytes resent by stripe retries).
func (c *Client) BytesSent() int64 { return c.bytesSent.Load() }

// Checkpoint returns the IDs of files fully delivered so far (including
// files skipped via SkipCompleted). Feeding the result into a new
// client's SkipCompleted resumes an interrupted transfer without
// resending finished files.
func (c *Client) Checkpoint() map[int64]bool {
	c.doneMu.Lock()
	defer c.doneMu.Unlock()
	out := make(map[int64]bool, len(c.doneFiles))
	for id := range c.doneFiles {
		out[id] = true
	}
	return out
}

// Err returns the first transfer error, or nil.
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

// Close aborts the transfer, releasing all goroutines and connections.
func (c *Client) Close() error {
	if c.done == nil {
		return nil
	}
	c.fail(errors.New("ftp: client closed"))
	c.shutdown()
	return nil
}

// shutdown stops goroutines and closes the control connection.
func (c *Client) shutdown() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.sem.Resize(c.MaxWorkers) // unblock workers so they can exit
	})
	if c.pool != nil {
		c.pool.close()
	}
	if c.ctrl != nil {
		c.ctrlMu.Lock()
		fmt.Fprintf(c.ctrlW, "%s\n", hdrQuit)
		c.ctrlW.Flush()
		c.ctrlMu.Unlock()
		c.ctrl.Close()
	}
	c.wg.Wait()
}

// fail records the first error and finishes the transfer.
func (c *Client) fail(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
	c.finish()
}

func (c *Client) finish() {
	c.doneOnce.Do(func() { close(c.done) })
}

func (c *Client) kickAnnouncer() {
	select {
	case c.announce <- struct{}{}:
	default:
	}
}

// announcer sends FILE commands, keeping at most `pipelining`
// announcements outstanding beyond the completed-file count — the
// command prefetch that hides the per-file control round trip.
func (c *Client) announcer() {
	defer c.wg.Done()
	next := int64(0)
	total := int64(len(c.Files))
	for next < total {
		q := int64(c.Setting().Pipelining)
		if next < c.completed.Load()+q {
			c.ctrlMu.Lock()
			_, err := fmt.Fprintf(c.ctrlW, "%s %d %d\n", hdrFile, next, c.Files[next].Size)
			if err == nil {
				err = c.ctrlW.Flush()
			}
			c.ctrlMu.Unlock()
			if err != nil {
				if !c.Done() {
					c.fail(fmt.Errorf("ftp: announce file %d: %w", next, err))
				}
				return
			}
			c.announced.Store(next + 1)
			next++
			continue
		}
		select {
		case <-c.announce:
		case <-c.stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ackReader closes each file's ack channel as ACKs arrive.
func (c *Client) ackReader() {
	defer c.wg.Done()
	r := bufio.NewReader(c.ctrl)
	for {
		line, err := readLine(r)
		if err != nil {
			if !c.Done() {
				select {
				case <-c.stop:
				default:
					c.fail(fmt.Errorf("ftp: control read: %w", err))
				}
			}
			return
		}
		fields, err := parseFields(line, hdrAck, 2)
		if err != nil {
			c.fail(err)
			return
		}
		id, err := parseInt64(fields[1])
		if err != nil || id >= int64(len(c.acks)) {
			c.fail(fmt.Errorf("ftp: bad ack %q", line))
			return
		}
		select {
		case <-c.acks[id]: // duplicate ACK: protocol violation
			c.fail(fmt.Errorf("ftp: duplicate ack for file %d", id))
			return
		default:
			close(c.acks[id])
		}
	}
}

// worker claims files and transfers them while it can hold a
// concurrency token.
func (c *Client) worker() {
	defer c.wg.Done()
	for {
		if !c.sem.Acquire(c.stop) {
			return
		}
		idx := c.nextFile.Add(1) - 1
		if idx >= int64(len(c.Files)) {
			c.sem.Release()
			return
		}
		var err error
		if !c.SkipCompleted[idx] {
			err = c.transferFile(idx)
		}
		c.sem.Release()
		if err != nil {
			c.fail(fmt.Errorf("ftp: file %d: %w", idx, err))
			return
		}
		c.doneMu.Lock()
		c.doneFiles[idx] = true
		c.doneMu.Unlock()
		if c.completed.Add(1) == int64(len(c.Files)) {
			c.finish()
			return
		}
		c.kickAnnouncer()
	}
}

// transferFile waits for the file's ACK, then sends it as `parallelism`
// stripes over parallel data connections sharing the file's rate
// budget.
func (c *Client) transferFile(idx int64) error {
	select {
	case <-c.acks[idx]:
	case <-c.stop:
		return errors.New("stopped")
	}
	set := c.Setting()
	p := set.Parallelism
	size := c.Files[idx].Size
	if int64(p) > size {
		p = int(size)
	}
	limiter := newRateLimiter(c.PerProcRate)

	stripe := size / int64(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for s := 0; s < p; s++ {
		offset := int64(s) * stripe
		length := stripe
		if s == p-1 {
			length = size - offset
		}
		wg.Add(1)
		go func(i int, off, ln int64) {
			defer wg.Done()
			errs[i] = c.sendStripeWithRetry(idx, off, ln, limiter)
		}(s, offset, length)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// errChecksum marks a server-reported integrity failure (retryable).
var errChecksum = errors.New("ftp: stripe checksum rejected")

// sendStripeWithRetry retries transient stripe failures up to
// RetryLimit times. Aborts (client stop) are not retried.
func (c *Client) sendStripeWithRetry(idx, offset, length int64, limiter *rateLimiter) error {
	var last error
	for attempt := 0; attempt < c.RetryLimit; attempt++ {
		select {
		case <-c.stop:
			return errors.New("stopped")
		default:
		}
		last = c.sendStripe(idx, offset, length, limiter)
		if last == nil {
			return nil
		}
		c.retries.Add(1)
	}
	return fmt.Errorf("stripe [%d+%d) failed after %d attempts: %w", offset, length, c.RetryLimit, last)
}

// sendStripe ships [offset, offset+length) over a pooled data
// connection, appending a CRC-32C trailer that the server must
// acknowledge. Healthy connections return to the pool for the next
// stripe; failed ones are discarded.
func (c *Client) sendStripe(idx, offset, length int64, limiter *rateLimiter) (err error) {
	dc, err := c.pool.get()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			c.pool.discard(dc)
		} else {
			c.pool.put(dc)
		}
	}()
	if _, err = fmt.Fprintf(dc.w, "%s %d %d %d\n", hdrSeg, idx, offset, length); err != nil {
		return err
	}
	sum := crc32.New(castagnoli)
	buf := make([]byte, 128*1024)
	pos := offset
	remaining := length
	for remaining > 0 {
		select {
		case <-c.stop:
			return errors.New("stopped")
		default:
		}
		chunk := buf
		if remaining < int64(len(chunk)) {
			chunk = chunk[:remaining]
		}
		if err = c.Source.ReadAt(idx, pos, chunk); err != nil {
			return fmt.Errorf("source read: %w", err)
		}
		limiter.wait(len(chunk))
		if _, err = dc.w.Write(chunk); err != nil {
			return err
		}
		sum.Write(chunk)
		c.bytesSent.Add(int64(len(chunk)))
		pos += int64(len(chunk))
		remaining -= int64(len(chunk))
	}
	if _, err = fmt.Fprintf(dc.w, "%s %d %d %d\n", hdrSum, idx, offset, sum.Sum32()); err != nil {
		return err
	}
	if err = dc.w.Flush(); err != nil {
		return err
	}
	// Wait for the server's verdict: DONE confirms verified delivery,
	// BAD demands a retry.
	line, err := readLine(dc.r)
	if err != nil {
		return fmt.Errorf("awaiting DONE: %w", err)
	}
	if splitVerb(line) == hdrBad {
		return errChecksum
	}
	if _, err = parseFields(line, hdrDone, 3); err != nil {
		return err
	}
	return nil
}

// splitVerb returns a header line's first word.
func splitVerb(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' {
			return line[:i]
		}
	}
	return line
}

// resizableSemaphore is a counting semaphore whose capacity can change
// at runtime — the mechanism that lets Apply raise or lower the number
// of active file workers mid-transfer.
type resizableSemaphore struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	used     int
}

func newResizableSemaphore(capacity int) *resizableSemaphore {
	s := &resizableSemaphore{capacity: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire blocks until a token is available or stop is closed; it
// reports whether a token was obtained.
func (s *resizableSemaphore) Acquire(stop <-chan struct{}) bool {
	// A watcher goroutine converts stop-closure into a broadcast so
	// blocked waiters re-check.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			s.cond.Broadcast()
		case <-done:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.used >= s.capacity {
		select {
		case <-stop:
			return false
		default:
		}
		s.cond.Wait()
	}
	select {
	case <-stop:
		return false
	default:
	}
	s.used++
	return true
}

// Release returns a token.
func (s *resizableSemaphore) Release() {
	s.mu.Lock()
	s.used--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Resize changes the capacity, waking waiters if it grew.
func (s *resizableSemaphore) Resize(capacity int) {
	s.mu.Lock()
	s.capacity = capacity
	s.mu.Unlock()
	s.cond.Broadcast()
}
