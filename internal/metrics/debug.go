package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler serving the observability surface:
//
//	/metrics      Prometheus text dump of the default registry
//	/debug/vars   expvar JSON (includes natix_metrics)
//	/debug/pprof  the standard pprof index
//
// It is mounted by the CLI tools' -debug-addr flag.
func Handler() http.Handler {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ServePrometheus)
	mux.Handle("/debug/vars", http.DefaultServeMux) // expvar registers itself there
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePrometheus is the GET /metrics handler: the Prometheus text dump of
// the default registry. The debug mux and both natix-serve roles mount it.
func ServePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	Default.WritePrometheus(w)
}

// Serve enables collection and serves Handler() on addr in a background
// goroutine, returning the bound address (useful with ":0"). Serving
// continues for the life of the process; errors after bind are dropped, as
// the debug endpoint is best-effort by design.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	Enable()
	srv := &http.Server{Handler: Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
