// Command xmlsec-server serves a secure XML database over HTTP (see
// internal/server for the endpoints). Identification is HTTP Basic Auth
// username only — put a real authenticator in front for anything beyond
// demos.
//
// Usage:
//
//	xmlsec-server                      # paper scenario on :8080
//	xmlsec-server -addr :9090
//	xmlsec-server -snapshot db.sxml    # serve a restored snapshot
//	xmlsec-server -pprof               # also expose /debug/pprof/
//	xmlsec-server -accesslog access.jsonl
//	xmlsec-server -warm 4              # pre-materialize all views, 4 workers
//
// Telemetry is always on: Prometheus text on /metrics, an expvar snapshot
// on /debug/vars, and a structured JSON access log (stderr by default,
// -accesslog off to silence). Every request is traced into a bounded
// in-memory ring: GET /traces lists recent summaries, GET /trace/{id}
// returns the full span tree, and -slowtrace sets the latency above
// which whole trees are logged through the access logger.
//
// On SIGINT or SIGTERM the server stops accepting connections, gives
// in-flight requests up to shutdownTimeout to finish, then closes the
// journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"securexml/internal/core"
	"securexml/internal/scenario"
	"securexml/internal/server"
)

// attachJournal opens (or creates) the append-only command log and hooks
// it into the database, continuing from seqStart. It returns the file for
// the caller to close at shutdown (nil without a journal).
func attachJournal(db *core.Database, path string, seqStart uint64) (io.Closer, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	db.AttachJournal(f, seqStart)
	fmt.Printf("journaling to %s (from seq %d)\n", path, seqStart)
	return f, nil
}

// Connection deadlines, so a slow or stalled client cannot hold a
// connection open indefinitely. They are sized generously: the write
// deadline covers serializing a 25k-node GET /view and a 30 s pprof CPU
// profile.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	// shutdownTimeout bounds how long a signalled server waits for
	// in-flight requests before closing their connections.
	shutdownTimeout = 30 * time.Second
)

// newHTTPServer wraps handler in an http.Server with the connection
// deadlines set.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve runs srv on ln until ctx is done, then shuts it down gracefully:
// the listener closes at once and in-flight requests get up to
// shutdownTimeout to complete. It returns nil after a clean shutdown.
func serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// ctx is done by now; the drain gets its own deadline.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownTimeout)
	defer cancel()
	err := srv.Shutdown(sctx)
	if serr := <-errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	snapshot := flag.String("snapshot", "", "serve a database restored from this snapshot file")
	journalPath := flag.String("journal", "", "append executed modifications to this command log")
	recover := flag.Bool("recover", false, "replay the journal on top of the snapshot before serving")
	pprof := flag.Bool("pprof", false, "expose runtime profiles under /debug/pprof/")
	accessLog := flag.String("accesslog", "stderr", `structured access log: "stderr", "off", or a file path`)
	warm := flag.Int("warm", 0, "pre-materialize every user's view at startup through this many workers (0 = off)")
	slowTrace := flag.Duration("slowtrace", 500*time.Millisecond, "log the full span tree of requests slower than this (0 = off)")
	tier := flag.String("tier", "auto", `pin /query and /value to one read-ladder tier: "rewrite", "qfilter", "view" or "auto"`)
	flag.Parse()

	forcedTier, err := core.ParseTier(*tier)
	if err != nil {
		fatal(err)
	}

	var db *core.Database
	var journal io.Closer
	if *snapshot != "" {
		f, err := os.Open(*snapshot)
		if err != nil {
			fatal(err)
		}
		var seqStart uint64
		if *recover {
			if *journalPath == "" {
				fatal(fmt.Errorf("-recover requires -journal"))
			}
			jf, err := os.Open(*journalPath)
			if err != nil {
				fatal(err)
			}
			db, seqStart, err = core.Recover(f, jf)
			jf.Close()
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("recovered %s + %s (seq %d)\n", *snapshot, *journalPath, seqStart)
		} else {
			db, err = core.Open(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("restored %s\n", *snapshot)
		}
		if journal, err = attachJournal(db, *journalPath, seqStart); err != nil {
			fatal(err)
		}
	} else {
		var err error
		db, err = scenario.New()
		if err != nil {
			fatal(err)
		}
		fmt.Println("serving the paper's hospital scenario")
		fmt.Println("users: beaufort, laporte, richard, robert, franck (basic auth, any password)")
		if journal, err = attachJournal(db, *journalPath, 0); err != nil {
			fatal(err)
		}
	}
	opts := []server.Option{server.WithSlowTraceThreshold(*slowTrace)}
	if forcedTier != core.TierAuto {
		opts = append(opts, server.WithForcedTier(forcedTier))
		fmt.Printf("read ladder pinned to tier %s\n", forcedTier)
	}
	if *pprof {
		opts = append(opts, server.WithPprof())
		fmt.Println("pprof enabled on /debug/pprof/")
	}
	switch *accessLog {
	case "off":
	case "stderr":
		opts = append(opts, server.WithAccessLog(os.Stderr))
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, server.WithAccessLog(f))
		fmt.Printf("access log -> %s\n", *accessLog)
	}
	if *warm > 0 {
		start := time.Now()
		n, err := db.WarmSessions(context.Background(), nil, *warm)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("warmed %d user views in %s (%d workers)\n", n, time.Since(start).Round(time.Millisecond), *warm)
	}
	st := db.Stats()
	fmt.Printf("listening on %s (%d nodes, %d rules, %d users); metrics on /metrics\n", *addr, st.Nodes, st.Rules, st.Users)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, newHTTPServer(*addr, server.New(db, opts...)), ln); err != nil {
		fatal(err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Println("shut down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmlsec-server:", err)
	os.Exit(1)
}
