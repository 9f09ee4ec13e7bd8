package diet

import (
	"fmt"
	"time"

	"repro/internal/cori"
	"repro/internal/dataman"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// SeDSpec describes one SeD of a deployment.
type SeDSpec struct {
	Name        string
	Parent      string // LA name
	Cluster     string
	Capacity    int
	PowerGFlops float64
	Services    []ServiceSpec
	// Executor optionally routes this SeD's solves through a batch system
	// (batch.ForecastExecutor: forecast-sized reservations, the policy's
	// fixed grant while the monitor is cold). Nil executes solves inline.
	Executor Executor
}

// ServiceSpec binds a descriptor to its solve function for deployment.
type ServiceSpec struct {
	Desc  *ProfileDesc
	Solve SolveFunc
}

// DeploymentSpec describes a whole platform: one MA, its LAs, their SeDs —
// the shape of the paper's Grid'5000 deployment (1 MA, 6 LA, 11 SeD).
type DeploymentSpec struct {
	MAName string
	Policy scheduler.Policy
	LAs    []string // LA names; every LA hangs off the MA
	SeDs   []SeDSpec
	Local  bool // in-process transport (tests, experiments); false = TCP
	// Events, when set, is wired into every component of the deployment (and
	// into clients opened with Deployment.Client), so one sink sees the whole
	// platform's events and request traces — the LogService topology.
	Events EventSink
	// Metrics, when set, is shared by every component: one registry scrapes
	// the whole deployment, with per-component labels telling SeDs apart.
	Metrics *metrics.Registry
	// Data, when set, wires every SeD into the platform data manager: each
	// SeD joins the catalog as a node with its own store, estimates price
	// input transfers, solves fetch missing persistent inputs, and produced
	// persistent data is published platform-wide.
	Data *dataman.Catalog
	// Transfers is the shared per-pair bandwidth forecaster. When nil and
	// Data is set, Deploy creates one and subscribes it to the catalog's
	// measured transfers; supply both to control the wiring yourself.
	Transfers *cori.TransferMonitor
}

// Deployment is a running platform handle.
type Deployment struct {
	Naming     *naming.Service
	NamingAddr string
	MA         *Agent
	LAs        []*Agent
	SeDs       []*SeD
	// Data and Transfers echo the spec's data plane (Transfers is the
	// Deploy-created monitor when the spec left it nil).
	Data      *dataman.Catalog
	Transfers *cori.TransferMonitor

	events  EventSink
	servers []*rpc.Server
}

// Deploy brings up a complete DIET platform: naming service, master agent,
// local agents, SeDs with their services, all wired through the hierarchy.
func Deploy(spec DeploymentSpec) (*Deployment, error) {
	if spec.MAName == "" {
		spec.MAName = "MA1"
	}
	if spec.Data != nil && spec.Transfers == nil {
		spec.Transfers = cori.NewTransferMonitor(cori.Config{})
		monitor := spec.Transfers
		spec.Data.AddTransferObserver(func(from, to string, sizeMB float64, dur time.Duration) {
			monitor.Observe(cori.TransferSample{From: from, To: to, SizeMB: sizeMB, Duration: dur})
		})
	}
	d := &Deployment{Naming: naming.NewService(), Data: spec.Data, Transfers: spec.Transfers}

	// Naming service first; everything else registers through it.
	ns := rpc.NewServer()
	ns.Register(naming.ObjectName, d.Naming.Handler())
	var err error
	if spec.Local {
		d.NamingAddr, err = rpc.ServeLocal(fmt.Sprintf("naming-%s", spec.MAName), ns)
	} else {
		d.NamingAddr, err = ns.Start(":0")
	}
	if err != nil {
		return nil, fmt.Errorf("diet: starting naming service: %w", err)
	}
	d.servers = append(d.servers, ns)

	d.events = spec.Events
	ma, err := NewAgent(AgentConfig{
		Name: spec.MAName, Kind: MasterAgent, Naming: d.NamingAddr,
		Policy: spec.Policy, Local: spec.Local,
		Events: spec.Events, Metrics: spec.Metrics,
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	if err := ma.Start(); err != nil {
		d.Close()
		return nil, err
	}
	d.MA = ma

	for _, laName := range spec.LAs {
		la, err := NewAgent(AgentConfig{
			Name: laName, Kind: LocalAgent, Parent: spec.MAName,
			Naming: d.NamingAddr, Local: spec.Local,
			Events: spec.Events, Metrics: spec.Metrics,
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		if err := la.Start(); err != nil {
			d.Close()
			return nil, err
		}
		d.LAs = append(d.LAs, la)
	}

	for _, ss := range spec.SeDs {
		cfg := SeDConfig{
			Name: ss.Name, Parent: ss.Parent, Naming: d.NamingAddr,
			Capacity: ss.Capacity, PowerGFlops: ss.PowerGFlops,
			Cluster: ss.Cluster, Local: spec.Local, Executor: ss.Executor,
			Events: spec.Events, Metrics: spec.Metrics,
			Transfers: spec.Transfers,
		}
		if spec.Data != nil {
			cfg.Data = spec.Data
		}
		sed, err := NewSeD(cfg)
		if err != nil {
			d.Close()
			return nil, err
		}
		for _, svc := range ss.Services {
			if err := sed.AddService(svc.Desc, svc.Solve); err != nil {
				d.Close()
				return nil, err
			}
		}
		if err := sed.Start(); err != nil {
			d.Close()
			return nil, err
		}
		d.SeDs = append(d.SeDs, sed)
	}
	return d, nil
}

// Client opens a session against the deployment, sharing its event sink.
func (d *Deployment) Client() (*Client, error) {
	return InitializeConfig(ClientConfig{Naming: d.NamingAddr, MAName: d.MA.Name(), Events: d.events})
}

// Close tears the platform down: SeDs, agents, then the naming service.
func (d *Deployment) Close() {
	for _, s := range d.SeDs {
		s.Close()
	}
	for _, a := range d.LAs {
		a.Close()
	}
	if d.MA != nil {
		d.MA.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
}
