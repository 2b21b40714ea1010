package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerHasTimeouts: the server never runs with a zero (unbounded)
// connection deadline, so a slow client cannot pin a connection forever.
func TestHTTPServerHasTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server not wired: addr %q handler %v", srv.Addr, srv.Handler)
	}
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive deadline", name, d)
		}
	}
}
