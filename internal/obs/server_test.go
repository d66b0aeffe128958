package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("pf_profiler_epochs_total", "epochs run").Add(3)
	fl := NewFlight(2, 8, 4)
	for i := uint64(0); i < 4; i++ {
		fl.Record(int(i%2), FlightRec{Issue: i * 100, Lat: 10, Core: uint8(i % 2)})
	}
	status := func() any {
		return map[string]any{"epoch": 3, "flows": []string{"stream"}}
	}
	s := NewServer(reg, status, 2.0)
	s.SetFlight(fl, "")
	s.SetTrace(2, nil)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetrics(t *testing.T) {
	srv := newTestServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "pf_profiler_epochs_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
}

func TestServerStatus(t *testing.T) {
	srv := newTestServer(t)
	code, body := get(t, srv.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status = %d", code)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if v["epoch"] != float64(3) {
		t.Fatalf("/status epoch = %v", v["epoch"])
	}
}

func TestServerTrace(t *testing.T) {
	srv := newTestServer(t)
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			PID  int32  `json:"pid"`
			TID  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	// One record in two per core: ordinal 0 of cores 0 and 1, each an L1
	// hit drawn as its req envelope and its core stage.
	var got []string
	for _, ev := range doc.TraceEvents {
		got = append(got, fmt.Sprintf("%s %d/%d", ev.Name, ev.PID, ev.TID))
	}
	if want := "[req 0/0 core 0/0 req 1/0 core 1/0]"; fmt.Sprint(got) != want {
		t.Fatalf("/trace events %v, want %s", got, want)
	}

	// Without trace sampling the endpoint is off.
	off := NewServer(nil, nil, 1)
	off.SetFlight(NewFlight(1, 4, 4), "")
	bare := httptest.NewServer(off.Handler())
	defer bare.Close()
	if code, _ := get(t, bare.URL+"/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace without -trace-sample = %d, want 404", code)
	}
}

func TestServerPprofIndex(t *testing.T) {
	srv := newTestServer(t)
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index missing profile list")
	}
}

func TestServerStartStop(t *testing.T) {
	s := NewServer(nil, nil, 1)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := get(t, "http://"+addr.String()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("live /metrics status = %d", code)
	}
	// nil tracer: /trace is 404, not a crash.
	code, _ = get(t, "http://"+addr.String()+"/trace")
	if code != http.StatusNotFound {
		t.Fatalf("/trace without tracer = %d, want 404", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerGracefulShutdown proves Shutdown drains an in-flight request
// before returning, and that the port stops accepting afterwards.
func TestServerGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	inHandler := make(chan struct{}, 1)
	status := func() any {
		inHandler <- struct{}{}
		<-release // simulate a slow scraper mid-request
		return map[string]any{"ok": true}
	}
	s := NewServer(NewRegistry(), status, 1)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/status")
		if err != nil {
			got <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-inHandler // the request is now in flight

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(5 * time.Second) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", code)
	}
	if _, err := http.Get("http://" + addr.String() + "/status"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestServerShutdownTimeout proves a stuck request cannot wedge Shutdown:
// the deadline forces the connection closed and the error reports it.
func TestServerShutdownTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	inHandler := make(chan struct{}, 1)
	status := func() any {
		inHandler <- struct{}{}
		<-release
		return nil
	}
	s := NewServer(NewRegistry(), status, 1)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + addr.String() + "/status")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-inHandler
	if err := s.Shutdown(20 * time.Millisecond); err == nil {
		t.Fatal("Shutdown returned nil despite a wedged request")
	}
}

// Shutdown before Start is a no-op, mirroring Close.
func TestServerShutdownUnstarted(t *testing.T) {
	s := NewServer(nil, nil, 1)
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}

// Regression: Close after Shutdown (and doubled Shutdown/Close in any
// order) must be idempotent no-ops.  The old code let a late Close race
// the listener Shutdown had already torn down.
func TestServerTeardownIdempotent(t *testing.T) {
	s := NewServer(nil, nil, 1)
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	// Close-first ordering on a fresh listen cycle.
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("restart after teardown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown after Close: %v", err)
	}
}

func TestServerFlightEndpoints(t *testing.T) {
	// Without a recorder both endpoints 404.
	bare := httptest.NewServer(NewServer(NewRegistry(), nil, 1).Handler())
	defer bare.Close()
	if code, _ := get(t, bare.URL+"/flight"); code != http.StatusNotFound {
		t.Fatalf("/flight without recorder = %d, want 404", code)
	}
	if code, _ := get(t, bare.URL+"/flight/dump"); code != http.StatusNotFound {
		t.Fatalf("/flight/dump without recorder = %d, want 404", code)
	}

	fl := NewFlight(1, 16, 4)
	fl.Enable()
	fl.Record(0, flightRec(0, 0, 123))
	reg := NewRegistry()
	reg.Counter("pf_epochs_total", "epochs").Add(2)
	s := NewServer(reg, func() any { return map[string]int{"epoch": 2} }, 1)
	s.SetFlight(fl, "seed=9,crc=1e-4")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body := get(t, srv.URL+"/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight status = %d", code)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/flight not a snapshot: %v\n%s", err, body)
	}
	if !snap.Enabled || snap.Records != 1 {
		t.Fatalf("/flight snapshot = %+v", snap)
	}

	code, body = get(t, srv.URL+"/flight/dump")
	if code != http.StatusOK {
		t.Fatalf("/flight/dump status = %d", code)
	}
	b, err := ReadBundle(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/flight/dump not a bundle: %v", err)
	}
	if b.Trigger != "http" || b.FaultPlan != "seed=9,crc=1e-4" {
		t.Fatalf("bundle header = trigger %q plan %q", b.Trigger, b.FaultPlan)
	}
	if !strings.Contains(b.Metrics, "pf_epochs_total 2") {
		t.Fatalf("bundle metrics missing counter:\n%s", b.Metrics)
	}
	if !strings.Contains(string(b.Status), `"epoch"`) {
		t.Fatalf("bundle status lost: %s", b.Status)
	}
}
