package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// StatusFunc supplies the /status payload: any JSON-marshalable value.  It
// is called from serving goroutines, so implementations must be safe for
// concurrent use (the cmd binaries publish through an atomic.Value).
type StatusFunc func() any

// Server is the live introspection endpoint of a run:
//
//	/metrics      Prometheus text exposition of a Registry
//	/status       JSON snapshot from the StatusFunc
//	/trace        sampled flight records as Chrome trace_event JSON (Perfetto)
//	/flight       flight-recorder snapshot (tail store, thresholds, exemplars)
//	/flight/dump  a full postmortem bundle, assembled on demand
//	/debug/pprof  the standard Go profiling handlers
//
// Everything is stdlib; there are no external dependencies.
type Server struct {
	reg    *Registry
	status StatusFunc
	ghz    float64

	flight     *Flight
	plan       string // canonical FaultPlan string for bundles, "" = healthy
	traceEvery int    // /trace exports one ring record in traceEvery (0 = off)
	locName    func(uint8) string

	mu     sync.Mutex
	closed bool
	http   *http.Server
	addr   net.Addr
}

// NewServer builds a server over the given registry and status source.
// status may be nil (the endpoint then reports an empty object); ghz
// scales trace timestamps.
func NewServer(reg *Registry, status StatusFunc, ghz float64) *Server {
	if reg == nil {
		reg = Default
	}
	return &Server{reg: reg, status: status, ghz: ghz}
}

// SetFlight attaches a flight recorder (and the fault-plan string bundles
// should carry) so /flight and /flight/dump serve content.  Call before
// Start.
func (s *Server) SetFlight(f *Flight, faultPlan string) {
	s.flight = f
	s.plan = faultPlan
}

// SetTrace makes /trace export the recorder's rings, one record in every
// per core (Flight.Sample), with locName naming serve locations.  Call
// before Start; every < 1 leaves /trace off.
func (s *Server) SetTrace(every int, locName func(uint8) string) {
	s.traceEvery = every
	s.locName = locName
}

// Handler returns the introspection mux (useful for tests and embedding).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/flight/dump", s.handleFlightDump)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "pathfinder introspection: /metrics /status /trace /flight /flight/dump /debug/pprof/\n")
	})
	return mux
}

// Start begins serving on addr (e.g. ":6060", "127.0.0.1:0") in a
// background goroutine and returns the bound address.  Use Close to stop.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.addr = ln.Addr()
	s.http = srv
	s.closed = false
	s.mu.Unlock()
	go func() {
		// ErrServerClosed after Close is the clean shutdown path; any other
		// serve error leaves the endpoints dark but must not kill the run.
		_ = srv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() net.Addr { return s.addr }

// stop claims the one-shot teardown: it returns the server to tear down
// exactly once, and nil on every later call.  Close and Shutdown both go
// through it, so Close-after-Shutdown, Shutdown-after-Close, and doubled
// calls are all idempotent no-ops instead of racing on the listener.
func (s *Server) stop() *http.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.http == nil || s.closed {
		return nil
	}
	s.closed = true
	return s.http
}

// Close stops the server immediately, dropping in-flight requests.  It is
// idempotent, including after a Shutdown.
func (s *Server) Close() error {
	srv := s.stop()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Shutdown stops accepting new connections and waits up to timeout for
// in-flight requests (a /metrics scrape, a /trace dump) to finish before
// forcing the remaining connections closed.  It returns nil on a clean
// drain and the context error when the timeout forced the close.  Repeat
// calls (and a Close that follows) are no-ops.
func (s *Server) Shutdown(timeout time.Duration) error {
	srv := s.stop()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil {
		// The drain deadline passed with requests still in flight; force
		// them closed so the caller is never stuck behind a slow scraper.
		srv.Close()
	}
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var v any = map[string]any{}
	if s.status != nil {
		if got := s.status(); got != nil {
			v = got
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.flight == nil || s.traceEvery < 1 {
		http.Error(w, "no trace sampling (run with -flight and -trace-sample N)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="pathfinder-spans.json"`)
	_ = WriteChromeTrace(w, s.flight.Sample(s.traceEvery), s.ghz, s.locName)
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	if s.flight == nil {
		http.Error(w, "no flight recorder attached (run with -flight)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(s.flight.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleFlightDump(w http.ResponseWriter, _ *http.Request) {
	if s.flight == nil {
		http.Error(w, "no flight recorder attached (run with -flight)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="pathfinder-flight-bundle.json"`)
	err := DumpBundle(w, BundleOpts{
		Trigger:   "http",
		Flight:    s.flight,
		Metrics:   s.reg,
		Status:    s.status,
		FaultPlan: s.plan,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
