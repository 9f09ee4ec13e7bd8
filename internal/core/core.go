// Package core is the paper's primary contribution surface in one import:
// the DIET GridRPC middleware (client, agent hierarchy, server daemons,
// profiles) together with the plug-in scheduler policies — everything a
// downstream application needs to "gridify" a service the way §5 gridifies
// RAMSES. The implementation lives in the focused packages internal/diet and
// internal/scheduler; this package re-exports their public API so examples
// and tools read as a single coherent library.
package core

import (
	"repro/internal/dataman"
	"repro/internal/diet"
	"repro/internal/scheduler"
)

// Middleware data model (diet_profile_t and friends).
type (
	// Profile is a problem description plus argument values.
	Profile = diet.Profile
	// ProfileDesc is the service signature a SeD registers.
	ProfileDesc = diet.ProfileDesc
	// Arg is one profile argument.
	Arg = diet.Arg
	// BaseType enumerates element types (Char, Int, Double).
	BaseType = diet.BaseType
	// ArgKind enumerates container types (Scalar … File).
	ArgKind = diet.ArgKind
	// Persistence enumerates data persistence modes.
	Persistence = diet.Persistence
	// Direction classifies arguments (In, InOut, Out).
	Direction = diet.Direction
)

// Components.
type (
	// Client is the application's handle on the platform.
	Client = diet.Client
	// ClientConfig is the parsed client configuration file.
	ClientConfig = diet.ClientConfig
	// CallInfo carries per-call timing (finding time, latency, compute).
	CallInfo = diet.CallInfo
	// AsyncCall is an in-flight asynchronous request.
	AsyncCall = diet.AsyncCall
	// Agent is a Master or Local Agent.
	Agent = diet.Agent
	// AgentConfig configures an agent.
	AgentConfig = diet.AgentConfig
	// SeD is a Server Daemon.
	SeD = diet.SeD
	// SeDConfig configures a SeD.
	SeDConfig = diet.SeDConfig
	// SolveFunc computes one service request.
	SolveFunc = diet.SolveFunc
	// ServerRef identifies a chosen server.
	ServerRef = diet.ServerRef
	// Deployment is a running platform.
	Deployment = diet.Deployment
	// DeploymentSpec describes a platform to deploy.
	DeploymentSpec = diet.DeploymentSpec
	// SeDSpec describes one SeD of a deployment.
	SeDSpec = diet.SeDSpec
	// ServiceSpec binds a descriptor to a solve function.
	ServiceSpec = diet.ServiceSpec
)

// Data management (the paper's DTM/DAGDA role: persistent data published
// platform-wide, located by ID, fetched to wherever the solve runs).
type (
	// DataCatalog tracks replica locations and sizes for the platform;
	// wire one into DeploymentSpec.Data to data-enable every SeD.
	DataCatalog = dataman.Catalog
	// DataStore is one node's byte store.
	DataStore = dataman.Store
)

// Scheduling plug-ins.
type (
	// Estimate is a server's estimation vector.
	Estimate = scheduler.Estimate
	// Policy ranks candidate servers for a request.
	Policy = scheduler.Policy
)

// Re-exported enumerations.
const (
	Char   = diet.Char
	Int    = diet.Int
	Double = diet.Double

	Scalar = diet.Scalar
	Vector = diet.Vector
	Matrix = diet.Matrix
	Text   = diet.Text
	File   = diet.File

	Volatile   = diet.Volatile
	Persistent = diet.Persistent
	Sticky     = diet.Sticky

	In    = diet.In
	InOut = diet.InOut
	Out   = diet.Out

	MasterAgent = diet.MasterAgent
	LocalAgent  = diet.LocalAgent
)

// Constructors and session verbs.
var (
	// NewProfile allocates a profile with the DIET index convention.
	NewProfile = diet.NewProfile
	// NewProfileDesc allocates a service signature.
	NewProfileDesc = diet.NewProfileDesc
	// DescOf extracts the signature of a concrete profile.
	DescOf = diet.DescOf
	// Initialize opens a session from a configuration file (diet_initialize).
	Initialize = diet.Initialize
	// InitializeConfig opens a session from an in-memory configuration.
	InitializeConfig = diet.InitializeConfig
	// NewAgent creates a Master or Local Agent.
	NewAgent = diet.NewAgent
	// NewSeD creates a Server Daemon.
	NewSeD = diet.NewSeD
	// Deploy brings up a whole platform (naming, MA, LAs, SeDs).
	Deploy = diet.Deploy
	// WaitAll blocks on a set of asynchronous calls.
	WaitAll = diet.WaitAll
	// WithWork passes a work estimate to the scheduler.
	WithWork = diet.WithWork

	// NewDataCatalog creates a platform data catalog; NewDataStore a node
	// store to register on it.
	NewDataCatalog = dataman.NewCatalog
	NewDataStore   = dataman.NewStore

	// Scheduling policies. The forecast-aware pair ranks on the CoRI
	// history every SeD collects (internal/cori) and degrades to
	// power-aware behaviour until history exists.
	NewRoundRobin      = scheduler.NewRoundRobin
	NewRandom          = scheduler.NewRandom
	NewMCT             = scheduler.NewMCT
	NewPowerAware      = scheduler.NewPowerAware
	NewForecastAware   = scheduler.NewForecastAware
	NewContentionAware = scheduler.NewContentionAware
	PolicyByName       = scheduler.ByName
)
