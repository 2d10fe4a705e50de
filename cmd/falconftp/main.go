// Command falconftp demonstrates Falcon on real TCP sockets: a server
// receives files, a client sends them, and (optionally) a Falcon agent
// tunes concurrency live.
//
// Receive side:
//
//	falconftp serve [-addr :9099] [-dir DIR] [-cmd-delay 0ms]
//
// Send side (synthetic data unless -src is given):
//
//	falconftp send -addr HOST:9099 [-files N] [-size BYTES]
//	          [-rate BITS_PER_SEC] [-tune gd|bo|hc] [-cc N] [-p N] [-q N]
//	          [-interval 1s] [-maxcc 32]
//
// With -tune, the agent reconfigures the transfer every -interval; the
// per-epoch samples and decisions are printed as they happen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ftp"
	"repro/internal/session"
	"repro/internal/transfer"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "falconftp: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fail("usage: falconftp serve|send [flags]")
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "send":
		send(os.Args[2:])
	default:
		fail("unknown subcommand %q", os.Args[1])
	}
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9099", "listen address")
	dir := fs.String("dir", "", "write received files here (default: discard)")
	cmdDelay := fs.Duration("cmd-delay", 0, "artificial per-command latency (emulates WAN control RTT)")
	fs.Parse(args)

	var sink ftp.Sink
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fail("%v", err)
		}
		ds := &ftp.DirSink{Dir: *dir}
		defer ds.Close()
		sink = ds
	} else {
		sink = &ftp.DiscardSink{}
	}
	srv := &ftp.Server{Sink: sink, CommandDelay: *cmdDelay, Logf: func(f string, a ...any) {
		fmt.Fprintf(os.Stderr, f+"\n", a...)
	}}
	if err := srv.Serve(*addr); err != nil {
		fail("%v", err)
	}
	fmt.Printf("falconftp: serving on %s (sink: %T)\n", srv.Addr(), sink)
	select {} // run until killed
}

func send(args []string) {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9099", "server address")
	nFiles := fs.Int("files", 500, "number of synthetic files")
	size := fs.Int64("size", 4*dataset.MiB, "bytes per synthetic file")
	rate := fs.Float64("rate", 100e6, "per-file rate throttle in bits/s (0 = unlimited)")
	tune := fs.String("tune", "", "tune live with gd, bo, or hc (empty = fixed setting)")
	cc := fs.Int("cc", 1, "initial concurrency")
	p := fs.Int("p", 1, "parallelism (streams per file)")
	q := fs.Int("q", 8, "pipelining depth")
	interval := fs.Duration("interval", time.Second, "sample-transfer duration for tuning")
	maxCC := fs.Int("maxcc", 32, "tuning search-space bound")
	fs.Parse(args)

	files := make([]dataset.File, *nFiles)
	for i := range files {
		files[i] = dataset.File{Name: fmt.Sprintf("synthetic-%06d", i), Size: *size}
	}
	client := &ftp.Client{
		Addr:        *addr,
		Source:      ftp.PatternSource{},
		Files:       files,
		PerProcRate: *rate,
		MaxWorkers:  *maxCC,
	}
	initial := transfer.Setting{Concurrency: *cc, Parallelism: *p, Pipelining: *q}
	start := time.Now()
	if err := client.Start(initial); err != nil {
		fail("%v", err)
	}

	// SIGINT/SIGTERM cancel the run context so the control loop stops at
	// a clean point and the worker pool shuts down instead of leaving
	// half-written transfers behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	interrupted := false
	if *tune != "" {
		agent, err := core.NewAgentByName(*tune, *maxCC, time.Now().UnixNano())
		if err != nil {
			fail("%v", err)
		}
		if err := agent.SetFixedKnobs(*p, *q); err != nil {
			fail("%v", err)
		}
		err = session.Run(ctx, client, agent, session.Config{
			Interval: interval.Seconds(),
			OnSample: func(s transfer.Sample, next transfer.Setting) {
				fmt.Printf("sample: %s → %.1f Mbps; next %s\n",
					s.Setting, s.Throughput/1e6, next)
			},
		})
		if errors.Is(err, context.Canceled) {
			interrupted = true
		} else if err != nil {
			fail("%v", err)
		}
	} else {
		waitErr := make(chan error, 1)
		go func() { waitErr <- client.Wait() }()
		select {
		case err := <-waitErr:
			if err != nil {
				fail("%v", err)
			}
		case <-ctx.Done():
			interrupted = true
		}
	}
	client.Close() // drains the connection pool either way

	elapsed := time.Since(start)
	if interrupted {
		fmt.Fprintln(os.Stderr, "falconftp: interrupted, transfer stopped cleanly")
	}
	fmt.Printf("sent %d files, %.1f MiB in %v (%.1f Mbps mean)\n",
		len(files), float64(client.BytesSent())/float64(dataset.MiB), elapsed.Round(time.Millisecond),
		float64(client.BytesSent())*8/elapsed.Seconds()/1e6)
	if interrupted {
		os.Exit(130)
	}
}
