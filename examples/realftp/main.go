// Real sockets: Falcon tuning a live TCP transfer over loopback.
//
// A server and client from internal/ftp move 1500 × 1 MiB synthetic
// files over real TCP connections. Each file's send rate is throttled
// to 60 Mbps — the per-process I/O cap of a parallel file system — so
// one file at a time cannot use the machine, and a Falcon-GD agent
// discovers how many concurrent files to run. Run with:
//
//	go run ./examples/realftp
//
// Unlike the simulated examples this one has no Example test: it moves
// real bytes for about 15 s, and what it prints depends on the
// machine's timing, so there is no output to pin.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ftp"
	"repro/internal/transfer"
)

func main() {
	sink := &ftp.DiscardSink{}
	srv := &ftp.Server{Sink: sink}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s\n", srv.Addr())

	files := make([]dataset.File, 1500)
	for i := range files {
		files[i] = dataset.File{Name: fmt.Sprintf("blob-%04d", i), Size: 1 * dataset.MiB}
	}
	client := &ftp.Client{
		Addr:        srv.Addr(),
		Source:      ftp.PatternSource{},
		Files:       files,
		PerProcRate: 60e6, // 60 Mbps per file: concurrency pays off
		MaxWorkers:  32,
	}
	if err := client.Start(transfer.Setting{Concurrency: 1, Parallelism: 1, Pipelining: 16}); err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	agent := core.NewGDAgent(24)
	if err := agent.SetFixedKnobs(1, 16); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	start := time.Now()
	err := core.Run(ctx, client, agent, core.RunConfig{
		SampleInterval: 500 * time.Millisecond,
		OnSample: func(s transfer.Sample, next transfer.Setting) {
			fmt.Printf("t=%5.1fs  %-14s → %7.1f Mbps   next: %s\n",
				time.Since(start).Seconds(), s.Setting, s.Throughput/1e6, next)
		},
	})
	if err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}

	elapsed := time.Since(start)
	fmt.Printf("\nmoved %.0f MiB in %v — %.0f Mbps mean (single 60 Mbps stream would have needed %.0fs)\n",
		float64(client.BytesSent())/float64(dataset.MiB), elapsed.Round(time.Second),
		float64(client.BytesSent())*8/elapsed.Seconds()/1e6,
		float64(client.BytesSent())*8/60e6)
}
