// Package ftp implements a small GridFTP-flavoured file transfer
// protocol over real TCP sockets, exercising the same application-layer
// knobs Falcon tunes: concurrency (files in flight), parallelism
// (striped data connections per file), and pipelining (control-channel
// command prefetch). The client satisfies session.Environment, so a Falcon
// agent can tune a live transfer over loopback — the repository's
// real-socket demonstration of the paper's system.
//
// Wire protocol (all headers are single LF-terminated ASCII lines):
//
//	control connection:  "CTRL"
//	                     "FILE <id> <size>"     (client, pipelined ≤ q ahead)
//	                     "ACK <id>"             (server)
//	                     "QUIT"                 (client)
//	data connection:     "DATA"
//	                     "SEG <id> <offset> <length>" + <length raw bytes>
//	                     "SUM <id> <offset> <crc32>"  (client trailer)
//	                     "DONE <id> <offset>"   (server: checksum verified)
//	                     "BAD <id> <offset>"    (server: checksum mismatch)
//	                     "END"                  (client)
//
// Every stripe carries a CRC-32 (Castagnoli) trailer; the server
// verifies it against the received payload before acknowledging, and
// the client retries a stripe on BAD, a dropped connection, or a dial
// failure (up to Client.RetryLimit attempts) — the integrity
// verification and transient-failure recovery every production transfer
// tool provides.
//
// Loopback has neither queuing loss nor meaningful command latency, so
// two knobs substitute for the paper's WAN conditions (documented in
// DESIGN.md): Server.CommandDelay emulates control-channel RTT (making
// pipelining matter) and Client.PerProcRate emulates the per-process
// I/O throttle of a parallel file system (making concurrency matter).
// Packet loss is not observable at the application layer on loopback;
// samples report zero loss — the paper's sender-limited case.
package ftp

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Protocol header words.
const (
	hdrCtrl = "CTRL"
	hdrData = "DATA"
	hdrFile = "FILE"
	hdrAck  = "ACK"
	hdrSeg  = "SEG"
	hdrSum  = "SUM"
	hdrDone = "DONE"
	hdrBad  = "BAD"
	hdrEnd  = "END"
	hdrQuit = "QUIT"
)

// maxLineLen bounds header lines against malformed peers.
const maxLineLen = 256

// readLine reads one LF-terminated header line, rejecting oversized or
// malformed input.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > maxLineLen {
		return "", fmt.Errorf("ftp: header line exceeds %d bytes", maxLineLen)
	}
	return strings.TrimSuffix(line, "\n"), nil
}

// parseFields splits a header and checks the verb and field count.
func parseFields(line, verb string, want int) ([]string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != verb {
		return nil, fmt.Errorf("ftp: expected %s header, got %q", verb, line)
	}
	if len(fields) != want {
		return nil, fmt.Errorf("ftp: %s header has %d fields, want %d: %q", verb, len(fields), want, line)
	}
	return fields, nil
}

// parseInt64 parses a non-negative int64 header field.
func parseInt64(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("ftp: bad integer field %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("ftp: negative integer field %d", v)
	}
	return v, nil
}
