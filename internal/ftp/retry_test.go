package ftp

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transfer"
)

// TestServerRejectsCorruptStripe speaks the data protocol directly with
// a wrong checksum and expects a BAD verdict.
func TestServerRejectsCorruptStripe(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("hello, falcon")
	fmt.Fprintf(conn, "%s\n", hdrData)
	fmt.Fprintf(conn, "%s 0 0 %d\n", hdrSeg, len(payload))
	conn.Write(payload)
	fmt.Fprintf(conn, "%s 0 0 %d\n", hdrSum, crc32.Checksum(payload, castagnoli)+1) // wrong
	line, err := readLine(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, hdrBad) {
		t.Fatalf("verdict = %q, want BAD", line)
	}
}

// TestServerAcceptsCorrectStripe is the happy-path twin.
func TestServerAcceptsCorrectStripe(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("hello, falcon")
	fmt.Fprintf(conn, "%s\n", hdrData)
	fmt.Fprintf(conn, "%s 0 0 %d\n", hdrSeg, len(payload))
	conn.Write(payload)
	fmt.Fprintf(conn, "%s 0 0 %d\n", hdrSum, crc32.Checksum(payload, castagnoli))
	line, err := readLine(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, hdrDone) {
		t.Fatalf("verdict = %q, want DONE", line)
	}
	if sink.Bytes() != int64(len(payload)) {
		t.Fatalf("sink got %d bytes, want %d", sink.Bytes(), len(payload))
	}
}

// TestServerRejectsMalformedHeaders exercises the server's input
// validation against malformed peers.
func TestServerRejectsMalformedHeaders(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	try := func(name string, lines ...string) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, l := range lines {
			fmt.Fprintf(conn, "%s\n", l)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The server must close the connection without a DONE.
		buf := make([]byte, 64)
		n, _ := conn.Read(buf)
		if strings.HasPrefix(string(buf[:n]), hdrDone) {
			t.Errorf("%s: server acknowledged malformed input", name)
		}
	}
	try("unknown kind", "WAT")
	try("bad SEG fields", hdrData, "SEG 1 2")
	try("negative offset", hdrData, "SEG 1 -5 10")
	try("oversized segment", hdrData, fmt.Sprintf("SEG 1 0 %d", int64(2)<<30))
	try("bad FILE fields", hdrCtrl, "FILE 1")
	try("non-numeric id", hdrCtrl, "FILE abc 10")
}

// killingProxy forwards TCP connections to a target but severs selected
// connections after a byte budget — injected transient network failure.
type killingProxy struct {
	ln       net.Listener
	target   string
	connIdx  atomic.Int64
	killIdx  map[int64]bool // connection indices to sever
	killWait int64          // bytes forwarded before severing
}

func newKillingProxy(t *testing.T, target string, kill map[int64]bool, killWait int64) *killingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killingProxy{ln: ln, target: target, killIdx: kill, killWait: killWait}
	go p.loop()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *killingProxy) addr() string { return p.ln.Addr().String() }

func (p *killingProxy) loop() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.connIdx.Add(1) - 1
		go p.forward(in, idx)
	}
}

func (p *killingProxy) forward(in net.Conn, idx int64) {
	defer in.Close()
	out, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer out.Close()
	kill := p.killIdx[idx]
	go io.Copy(in, out) // server → client
	if !kill {
		io.Copy(out, in)
		return
	}
	// Forward killWait bytes, then sever both directions.
	io.CopyN(out, in, p.killWait)
	in.Close()
	out.Close()
}

func TestClientRetriesSeveredDataConnections(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	// Connection 0 is the control channel; sever the first two data
	// connections partway through their stripes. Connection 1 dying
	// forces a second dial, so both are always dialled — by the two
	// workers, or by one worker's retry — and each costs a retry however
	// the workers interleave. (Severing 1 and 3 did not: a survivor 2
	// can carry everything and 3 is then never dialled.)
	proxy := newKillingProxy(t, srv.Addr(), map[int64]bool{1: true, 2: true}, 8*1024)

	c := &Client{
		Addr:   proxy.addr(),
		Source: PatternSource{},
		Files:  files(6, 64*1024),
	}
	if err := c.Start(transfer.Setting{Concurrency: 2, Parallelism: 1, Pipelining: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("transfer failed despite retries: %v", err)
	}
	if got := c.Retries(); got < 2 {
		t.Fatalf("Retries = %d, want ≥2 (two severed stripes)", got)
	}
	// Every byte must still arrive (severed stripes resent in full).
	if sink.Bytes() < int64(6*64*1024) {
		t.Fatalf("sink received %d bytes, want ≥ %d", sink.Bytes(), 6*64*1024)
	}
}

func TestClientGivesUpAfterRetryLimit(t *testing.T) {
	sink := &DiscardSink{}
	srv := startServer(t, sink, 0)
	// Sever every data connection: the transfer can never complete.
	kill := map[int64]bool{}
	for i := int64(1); i < 64; i++ {
		kill[i] = true
	}
	proxy := newKillingProxy(t, srv.Addr(), kill, 1024)
	c := &Client{
		Addr:       proxy.addr(),
		Source:     PatternSource{},
		Files:      files(2, 64*1024),
		RetryLimit: 2,
	}
	if err := c.Start(transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 2}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("transfer succeeded through a fully-severed path")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not give up within 10s")
	}
}
