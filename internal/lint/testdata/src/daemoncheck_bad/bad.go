// Package daemoncheck_bad models the serving-layer shapes (Registry,
// ResponseWriter, *Request — matched by type name, as obscheck does)
// and breaks the scrape-safety contract: metric registration from inside
// HTTP handlers takes the family lock per request, and a series appears
// only once its route is hit.
package daemoncheck_bad

// ResponseWriter and Request mirror the net/http shapes the analyzer
// keys on.
type ResponseWriter interface {
	Header() map[string][]string
}

type Request struct{ Method string }

type Counter struct{ v int64 }

func (c *Counter) Inc() { c.v++ }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter    { return &Counter{} }
func (r *Registry) FloatGauge(name string) *Counter { return &Counter{} }
func (r *Registry) Histogram(name string) *Counter  { return &Counter{} }

type Mux struct{}

func (m *Mux) HandleFunc(pattern string, h func(ResponseWriter, *Request)) {}

type server struct{ reg *Registry }

// handleScrape registers on the scrape path.
func (s *server) handleScrape(w ResponseWriter, r *Request) {
	s.reg.FloatGauge("bad_scrape_gauge").Inc() // want:obscheck "inside HTTP handler handleScrape"
}

// ObserveScrape is constructor-shaped by name, but its signature says
// HTTP handler, and the handler shape is judged first.
func ObserveScrape(reg *Registry, w ResponseWriter, r *Request) {
	reg.Counter("bad_evasive_total").Inc() // want:obscheck "inside HTTP handler ObserveScrape"
}

// ServeHTTP is a handler by method name, whatever its parameter types.
func (s *server) ServeHTTP(w ResponseWriter, r *Request) {
	s.reg.Histogram("bad_latency_hist").Inc() // want:obscheck "inside HTTP handler ServeHTTP"
}

// routes registers from a handler literal: the literal's own signature,
// not the enclosing declaration's, makes it a handler.
func (s *server) routes(m *Mux) {
	m.HandleFunc("GET /metrics", func(w ResponseWriter, r *Request) {
		s.reg.Counter("bad_hits_total").Inc() // want:obscheck "inside HTTP handler handler literal"
	})
}

// NewServer's own registration is the sanctioned constructor idiom, but
// the handler literal it wires runs per request: the literal, not the
// constructor's name, decides.
func NewServer(reg *Registry, m *Mux) *server {
	reg.Counter("ok_boot_total").Inc()
	m.HandleFunc("GET /hits", func(w ResponseWriter, r *Request) {
		reg.Counter("bad_wired_total").Inc() // want:obscheck "inside HTTP handler handler literal"
	})
	return &server{reg: reg}
}
