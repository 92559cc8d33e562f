package metrics

import "repro/internal/sim"

// Server stores named arrival-rate meters.
type Server struct {
	eng    *sim.Engine
	meters map[string]*Meter
}

// NewServer creates an empty metrics server.
func NewServer(eng *sim.Engine) *Server {
	return &Server{eng: eng, meters: make(map[string]*Meter)}
}

// Meter returns (creating) a sliding-window event-rate meter.
func (s *Server) Meter(name string, window sim.Duration) *Meter {
	m, ok := s.meters[name]
	if !ok {
		m = NewMeter(s.eng, window)
		s.meters[name] = m
	}
	return m
}

// Meter measures event arrival rate over a sliding window — k_{i,t} in the
// residual-capacity formula of §5.1.
type Meter struct {
	eng    *sim.Engine
	window sim.Duration
	events []sim.Duration
	Total  uint64
}

// NewMeter builds a meter with the given window.
func NewMeter(eng *sim.Engine, window sim.Duration) *Meter {
	if window <= 0 {
		panic("metrics: meter window must be positive")
	}
	return &Meter{eng: eng, window: window}
}

// Mark records one event now.
func (m *Meter) Mark() {
	m.Total++
	m.events = append(m.events, m.eng.Now())
	m.trim()
}

func (m *Meter) trim() {
	cut := m.eng.Now() - m.window
	i := 0
	for i < len(m.events) && m.events[i] < cut {
		i++
	}
	if i > 0 {
		m.events = append(m.events[:0], m.events[i:]...)
	}
}

// Rate returns events/sec over the trailing window.
func (m *Meter) Rate() float64 {
	m.trim()
	return float64(len(m.events)) / m.window.Seconds()
}

// Count returns events inside the window.
func (m *Meter) Count() int {
	m.trim()
	return len(m.events)
}
