// Package telemetry is a shape-compatible stand-in for the real
// internal/telemetry package: the nilgate analyzer matches capture
// receivers by package name and type name, so fixtures can depend on
// this fake instead of the engine tree.
package telemetry

type Point struct{ Time float64 }

type Probe struct {
	pts  []Point
	last float64
}

func (p *Probe) Due(t float64) bool { return p == nil || t >= p.last }
func (p *Probe) Record(pt Point)    { p.pts = append(p.pts, pt) }
func (p *Probe) Histogram(name string) *Histogram {
	return NewHistogram()
}

type Histogram struct{ n int }

func NewHistogram() *Histogram                 { return &Histogram{} }
func (h *Histogram) Observe(v float64)         { h.n++ }
func (h *Histogram) ObserveDuration(v float64) { h.n++ }
