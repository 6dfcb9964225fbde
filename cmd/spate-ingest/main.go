// Command spate-ingest replays a trace directory (produced by spate-gen)
// into a SPATE store: each snapshot is compressed, replicated onto the
// embedded DFS cluster and incorporated into the spatio-temporal index,
// with optional decay. It prints the per-snapshot ingestion report stream
// and the final storage accounting (objectives O1/O2 of the paper).
//
// Usage:
//
//	spate-ingest -trace /tmp/trace -store /tmp/store -keepraw 24h
//
// With -stream the command becomes a paced firehose against a running
// spate-server (started with -stream): rows of the trace are POSTed to
// /api/append in batches at -rate rows/sec, backing off on 429
// backpressure, and are explorable on the server before their epoch seals.
//
//	spate-ingest -trace /tmp/trace -stream -server http://localhost:8080 -rate 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/telco"
	"spate/internal/tracedir"
)

func main() {
	var (
		trace   = flag.String("trace", "", "trace directory from spate-gen (required)")
		store   = flag.String("store", "", "DFS store directory (required unless -stream)")
		keepRaw = flag.Duration("keepraw", 0, "decay horizon for raw data (0 = keep forever)")
		grouped = flag.Bool("grouped", false, "use the EvictGroupedIndividuals fungus")
		verbose = flag.Bool("v", false, "print a line per ingested snapshot")
		follow  = flag.Bool("follow", false, "keep polling the trace directory for newly arriving snapshots (streaming mode)")
		poll    = flag.Duration("poll", 5*time.Second, "poll interval in -follow mode")

		stream = flag.Bool("stream", false, "firehose mode: POST trace rows to a spate-server's /api/append instead of writing a local store")
		server = flag.String("server", "http://localhost:8080", "spate-server base URL in -stream mode")
		rate   = flag.Int("rate", 0, "rows per second pacing in -stream mode (0 = unpaced)")
		batch  = flag.Int("batch", 500, "rows per append request in -stream mode")
		seal   = flag.Bool("seal", false, "request a seal of all buffered epochs after streaming")
	)
	flag.Parse()
	if *stream {
		if *trace == "" {
			fmt.Fprintln(os.Stderr, "spate-ingest: -trace is required")
			flag.Usage()
			os.Exit(2)
		}
		if err := streamTrace(*trace, *server, *rate, *batch, *seal, *verbose); err != nil {
			fatal(err)
		}
		return
	}
	if *trace == "" || *store == "" {
		fmt.Fprintln(os.Stderr, "spate-ingest: -trace and -store are required")
		flag.Usage()
		os.Exit(2)
	}
	cells, err := tracedir.ReadCells(*trace)
	if err != nil {
		fatal(err)
	}
	epochs, err := tracedir.Epochs(*trace)
	if err != nil {
		fatal(err)
	}
	fs, err := dfs.NewCluster(*store, dfs.Config{})
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Policy: decay.Policy{KeepRaw: *keepRaw}}
	if *grouped {
		opts.Fungus = decay.EvictGroupedIndividuals{}
	}
	eng, err := core.Open(fs, cells, opts)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	var rows, ingested int
	consume := func(e telco.Epoch) {
		sn, err := tracedir.ReadSnapshot(*trace, e)
		if err != nil {
			fatal(err)
		}
		rep, err := eng.Ingest(sn)
		if err != nil {
			fatal(err)
		}
		rows += rep.Rows
		ingested++
		if *verbose {
			fmt.Printf("%s  rows=%-7d raw=%-9d comp=%-8d rc=%.2f  t=%v\n",
				e, rep.Rows, rep.RawBytes, rep.CompBytes,
				float64(rep.RawBytes)/float64(rep.CompBytes), rep.Total.Round(time.Millisecond))
		}
	}
	for _, e := range epochs {
		consume(e)
	}
	if *follow {
		// Streaming mode: poll for newly arriving snapshot directories —
		// the telco data-center ingestion loop, where snapshots land every
		// 30 minutes. Stop with SIGINT.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		last := telco.Epoch(0)
		if len(epochs) > 0 {
			last = epochs[len(epochs)-1]
		}
		fmt.Printf("spate-ingest: following %s (poll %v, ^C to stop)\n", *trace, *poll)
		ticker := time.NewTicker(*poll)
		defer ticker.Stop()
	followLoop:
		for {
			select {
			case <-sig:
				break followLoop
			case <-ticker.C:
			}
			current, err := tracedir.Epochs(*trace)
			if err != nil {
				fatal(err)
			}
			for _, e := range current {
				if e > last {
					consume(e)
					last = e
				}
			}
		}
	}
	eng.FinishIngest()

	sp := eng.Space()
	u := fs.Usage()
	st := eng.Tree().Stats()
	fmt.Printf("spate-ingest: %d snapshots, %d rows in %v\n", ingested, rows, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  raw ingested S   : %.2f MB\n", mb(sp.RawBytes))
	fmt.Printf("  compressed Sc    : %.2f MB\n", mb(sp.CompBytes))
	fmt.Printf("  index Si         : %.2f MB\n", mb(sp.SummaryBytes))
	fmt.Printf("  objective O1     : %.2fx (S / (Sc+Si))\n", sp.O1)
	fmt.Printf("  on-disk (x%d rep): %.2f MB over %d datanodes\n",
		fs.Config().Replication, mb(u.StoredBytes), u.LiveNodes)
	fmt.Printf("  index            : %d nodes, %d leaves (%d decayed)\n",
		st.Nodes, st.Leaves, st.DecayedLeaves)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spate-ingest:", err)
	os.Exit(1)
}
