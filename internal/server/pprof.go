package server

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// StartPprof serves the runtime profiles (net/http/pprof) on a listener
// of their own at addr — never on a daemon's serving listener, whose mux
// does not know /debug/pprof — and returns the bound address (so ":0"
// works) and a stop function that closes the listener and waits for the
// serving goroutine. Both daemons offer it behind -pprof, off by default.
func StartPprof(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also heap, goroutine, allocs, block, mutex
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	HardenHTTPServer(hs, 0, 0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed once stop closes the server
	}()
	return ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}
