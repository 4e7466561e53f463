// Package daemoncheck_ok models the serving layer used correctly: every
// metric handle is registered in a constructor and cached, and handlers
// only read — scrapes render a Snapshot, counters tick through cached
// handles.
package daemoncheck_ok

type ResponseWriter interface {
	Header() map[string][]string
}

type Request struct{ Method string }

type Counter struct{ v int64 }

func (c *Counter) Inc() { c.v++ }

type Snapshot struct{ text string }

func (s *Snapshot) Render() string { return s.text }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter    { return &Counter{} }
func (r *Registry) FloatGauge(name string) *Counter { return &Counter{} }
func (r *Registry) Snapshot() *Snapshot             { return &Snapshot{} }

type Mux struct{}

func (m *Mux) HandleFunc(pattern string, h func(ResponseWriter, *Request)) {}

// server caches its handles at construction time; reg stays only for
// Snapshot reads.
type server struct {
	reg     *Registry
	scrapes *Counter
	watts   *Counter
}

// newServer is the one registration site: families exist before the
// first request, so two scrapes of an idle server agree.
func newServer(reg *Registry) *server {
	return &server{
		reg:     reg,
		scrapes: reg.Counter("ok_scrapes_total"),
		watts:   reg.FloatGauge("ok_power_gauge"),
	}
}

// handleMetrics is the scrape path: a pure read through a consistent
// snapshot, plus a tick on a cached handle.
func (s *server) handleMetrics(w ResponseWriter, r *Request) {
	s.scrapes.Inc()
	_ = s.reg.Snapshot().Render()
}

// ServeHTTP also only touches cached handles.
func (s *server) ServeHTTP(w ResponseWriter, r *Request) {
	s.watts.Inc()
}

// routes wires a literal handler that reads through the same cached
// handles.
func (s *server) routes(m *Mux) {
	m.HandleFunc("GET /metrics", func(w ResponseWriter, r *Request) {
		s.scrapes.Inc()
	})
}

// newRouteCounter is a non-handler helper: registration outside a
// handler is allowed when the helper is constructor-shaped, which it is.
func newRouteCounter(reg *Registry, route string) *Counter {
	return reg.Counter("ok_route_" + route)
}
