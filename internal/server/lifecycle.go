package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Lifecycle is the one HTTP listener implementation of the serving tier
// — bivocd's Server, bivocfed's Coordinator and the -pprof listener all
// run on it: bind, serve behind the hardening limits, report the bound
// address, drain, report why serving stopped. The zero value is ready to
// Start; a Start whose bind fails leaves it ready to Start again.
type Lifecycle struct {
	mu       sync.Mutex
	hs       *http.Server
	addr     string
	done     chan struct{} // closed once Serve has returned
	serveErr error         // why, unless it was Shutdown; set before done closes

	// readHeaderTimeout replaces the 5s header limit when set; a test's
	// way to see the slow-header cut-off without waiting for it.
	readHeaderTimeout time.Duration
}

// HardenHTTPServer applies the serving-tier hardening to hs — header
// and read timeouts so a slowloris client cannot pin connections, and a
// header size bound — with 5s / 60s / 1 MiB wherever the argument is
// zero.
func HardenHTTPServer(hs *http.Server, readHeaderTimeout, readTimeout time.Duration, maxHeaderBytes int) {
	hs.ReadHeaderTimeout = cmp.Or(readHeaderTimeout, 5*time.Second)
	hs.ReadTimeout = cmp.Or(readTimeout, 60*time.Second)
	hs.MaxHeaderBytes = cmp.Or(maxHeaderBytes, 1<<20)
}

// Start binds addr ("" picks a free loopback port) and serves h on it.
// It returns once the listener is live; Addr then reports where.
func (l *Lifecycle) Start(addr string, h http.Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hs != nil {
		return errors.New("Start called twice")
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: h}
	HardenHTTPServer(hs, l.readHeaderTimeout, 0, 0)
	l.hs, l.addr, l.done = hs, ln.Addr().String(), make(chan struct{})
	go func() {
		defer close(l.done)
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			l.serveErr = err
		}
	}()
	return nil
}

// Addr returns the bound listen address, or "" before Start has bound
// one. Safe to poll from other goroutines.
func (l *Lifecycle) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addr
}

// Shutdown closes the listener and lets in-flight requests run to
// completion, as long as ctx allows. It returns the drain's error joined
// with whatever ended serving early.
func (l *Lifecycle) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	hs, done := l.hs, l.done
	l.mu.Unlock()
	if hs == nil {
		return errors.New("Shutdown before Start")
	}
	err := hs.Shutdown(ctx)
	<-done
	return errors.Join(err, l.serveErr)
}

// pprofMux serves the runtime profiles (net/http/pprof). It gets a
// listener of its own, never a daemon's serving listener, whose mux
// does not know /debug/pprof.
func pprofMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also heap, goroutine, allocs, block, mutex
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NotifySignals installs the handler a daemon main runs under: the
// context is done at the first SIGINT or SIGTERM. A main calls it before
// it starts (and announces) its listener and hands the context to
// RunUntilSignal, so that there is no moment at which the daemon has
// printed an address, or answered a request, while a signal would still
// take the default disposition and kill it without a drain.
func NotifySignals() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
}

// RunUntilSignal is how both daemon mains end, once their listener is
// up: serve the profiles at pprofAddr if one is given (":0" works, the
// bound address is printed), block until ctx — NotifySignals' — is done,
// then run shutdown under the drain bound and say "stopped cleanly". name
// prefixes every line it prints.
func RunUntilSignal(ctx context.Context, name, pprofAddr string, drain time.Duration, shutdown func(context.Context) error) error {
	if pprofAddr != "" {
		var pp Lifecycle
		if err := pp.Start(pprofAddr, pprofMux()); err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		// Profiles do not drain: one still being taken ends with the
		// process, so stop under a context that has already expired.
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		defer pp.Shutdown(expired)
		fmt.Printf("%s: pprof at http://%s/debug/pprof/\n", name, pp.Addr())
	}
	<-ctx.Done()
	fmt.Printf("%s: shutting down, draining in-flight requests\n", name)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Printf("%s: stopped cleanly\n", name)
	return nil
}
