package cori

import "repro/internal/rpc"

// Wire layouts (rpc.WireBody conventions) of what gossip carries between
// DIET components: a Model is its fields in declaration order, a registry
// snapshot its version and its sources as a map, each source its cluster,
// report time and models as a map by service.

func (m *Model) WireSize() int {
	return rpc.LenSize + len(m.Service) + 2*rpc.IntSize + 12*rpc.Float64Size + rpc.BoolSize
}
func (m *Model) AppendWire(w rpc.Writer) rpc.Writer {
	w = w.Text(m.Service).Int(m.Samples).Int(m.Window)
	for _, f := range [...]float64{m.EWMASeconds, m.BaseSeconds, m.PerGFlopSeconds, m.MeasuredGFlops,
		m.MeanWorkGFlops, m.Confidence, m.AgeSeconds, m.MeanQueueDepth, m.MeanWaitSeconds,
		m.WaitBaseSeconds, m.WaitPerDepthSeconds} {
		w = w.Float64(f)
	}
	return w.Bool(m.Warm).Float64(m.PriorWeight)
}
func (m *Model) ReadWire(r *rpc.Reader) {
	m.Service, m.Samples, m.Window = r.Text(), r.Int(), r.Int()
	for _, f := range [...]*float64{&m.EWMASeconds, &m.BaseSeconds, &m.PerGFlopSeconds, &m.MeasuredGFlops,
		&m.MeanWorkGFlops, &m.Confidence, &m.AgeSeconds, &m.MeanQueueDepth, &m.MeanWaitSeconds,
		&m.WaitBaseSeconds, &m.WaitPerDepthSeconds} {
		*f = r.Float64()
	}
	m.Warm, m.PriorWeight = r.Bool(), r.Float64()
}

func (sm *SourceModels) WireSize() int {
	return rpc.TextSize(sm.Cluster) + rpc.TimeSize + rpc.MapSize(sm.Models)
}
func (sm *SourceModels) AppendWire(w rpc.Writer) rpc.Writer {
	return rpc.AppendMap(w.Text(sm.Cluster).Time(sm.At), sm.Models)
}
func (sm *SourceModels) ReadWire(r *rpc.Reader) {
	sm.Cluster, sm.At, sm.Models = r.Text(), r.Time(), rpc.ReadMap[Model](r)
}

func (s *RegistrySnapshot) WireSize() int { return rpc.IntSize + rpc.MapSize(s.Sources) }
func (s *RegistrySnapshot) AppendWire(w rpc.Writer) rpc.Writer {
	return rpc.AppendMap(w.Int(s.Version), s.Sources)
}
func (s *RegistrySnapshot) ReadWire(r *rpc.Reader) {
	s.Version, s.Sources = r.Int(), rpc.ReadMap[SourceModels](r)
}
