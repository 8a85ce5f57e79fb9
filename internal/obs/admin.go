package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// handler returns the admin endpoint: a mux serving
//
//	/metrics       the registry snapshot as JSON
//	/healthz       a liveness probe
//	/debug/pprof/  the standard Go profiling endpoints
//
// It is meant for a loopback or otherwise trusted listener; it performs no
// authentication.
func handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeAdmin listens on addr and serves the admin endpoint (handler) until
// ctx is done; see Serve. It is the admin shell of every daemon: it logs
// the address it bound, and the server's exit error if there is one,
// through logf.
func ServeAdmin(ctx context.Context, addr string, reg *Registry, logf func(format string, args ...any)) error {
	bound, done, err := Serve(ctx, addr, handler(reg))
	if err != nil {
		return err
	}
	logf("admin endpoint on http://%s (/metrics, /debug/pprof/)", bound)
	go func() {
		if err := <-done; err != nil {
			logf("admin listener: %v", err)
		}
	}()
	return nil
}

// Serve listens on addr and serves h until ctx is done, then shuts the
// listener down. It returns the bound address (useful with ":0") and a
// channel that yields the server's exit error. It is the one HTTP shell
// under the admin endpoint and the ingest tier.
func Serve(ctx context.Context, addr string, h http.Handler) (net.Addr, <-chan error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()
	go func() {
		err := srv.Serve(l)
		if err == http.ErrServerClosed {
			err = nil
		}
		done <- err
	}()
	return l.Addr(), done, nil
}
