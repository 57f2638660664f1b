package rm

import (
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
)

// Sharded RM twins: the same architectural models as Centralized and
// ESlurm, driven over a ShardedCluster so one RM simulation spans
// multiple engine cells. They satisfy the same RM interface — the
// experiment probes drive either family through identical call
// sequences — but their wire schedules are the sharded ack-based model
// (see comm.ShardBroadcaster), so their absolute numbers form their own
// pinned contract rather than reproducing the single-engine traces
// byte for byte.

// ShardedCentralized is the master-slave RM of a Profile over a sharded
// cluster. All master-side state (meter, tickers, job counters) lives on
// the master's home cell.
type ShardedCentralized struct {
	cluster *cluster.ShardedCluster
	prof    Profile
	b       *comm.ShardBroadcaster
	launchB *comm.ShardBroadcaster
	hb      *hbTicker
	jobs    int
	// computes lists the compute nodes once, at Start; every heartbeat
	// polls this list.
	computes []cluster.NodeID
}

// hbTicker wraps the master-cell heartbeat ticker.
type hbTicker struct{ stop func() }

// NewShardedCentralized builds the sharded twin of NewCentralized.
func NewShardedCentralized(c *cluster.ShardedCluster, prof Profile) *ShardedCentralized {
	b := comm.NewShardBroadcaster(c)
	launchB := comm.NewShardBroadcaster(c)
	if prof.LaunchWidth > 0 {
		b.MaxConcurrent = prof.LaunchWidth
		launchB.MaxConcurrent = prof.LaunchWidth
	}
	if prof.PerNodeLaunchOverhead > 0 {
		launchB.SendOverhead = prof.PerNodeLaunchOverhead
	}
	return &ShardedCentralized{cluster: c, prof: prof, b: b, launchB: launchB}
}

// Name implements RM.
func (r *ShardedCentralized) Name() string { return r.prof.Name }

// Meter implements RM.
func (r *ShardedCentralized) Meter() *cluster.ResourceMeter { return &r.cluster.Master().Meter }

// Start implements RM.
func (r *ShardedCentralized) Start() {
	m := r.Meter()
	r.computes = r.cluster.Computes()
	n := int64(len(r.computes))
	m.AddVMem(r.prof.BaseVMem + n*r.prof.PerNodeVMem)
	m.AddRSS(r.prof.BaseRSS + n*r.prof.PerNodeRSS)
	if r.prof.PersistentConns {
		for range r.computes {
			m.OpenSocket()
		}
	}
	if r.prof.HeartbeatInterval > 0 {
		t := r.cluster.Engine(r.cluster.Master().ID).Every(r.prof.HeartbeatInterval, r.heartbeat)
		r.hb = &hbTicker{stop: t.Stop}
	}
}

// Stop implements RM.
func (r *ShardedCentralized) Stop() {
	if r.hb != nil {
		r.hb.stop()
	}
}

// heartbeat polls every compute node from the master's cell.
func (r *ShardedCentralized) heartbeat() {
	master := r.cluster.Master().ID
	m := r.Meter()
	m.ChargeCPU(time.Duration(len(r.computes)) * r.prof.HeartbeatCPUPerNode)
	if r.prof.PersistentConns {
		for _, id := range r.computes {
			r.cluster.SendPersistent(master, id, r.prof.HBMsgBytes, nil, nil, nil)
		}
		return
	}
	r.b.BroadcastStar(master, r.computes, r.prof.HBMsgBytes, nil)
}

// launch routes one job broadcast over the profile's structure.
func (r *ShardedCentralized) launch(nodes []cluster.NodeID, size int, done func(comm.Result)) {
	master := r.cluster.Master().ID
	if r.prof.TreeLaunch {
		r.launchB.BroadcastTree(master, nodes, size, 50, done) // slurmd fan-out default
		return
	}
	r.launchB.BroadcastStar(master, nodes, size, done)
}

// LoadJob implements RM.
func (r *ShardedCentralized) LoadJob(nodes []cluster.NodeID, done func(time.Duration)) {
	m := r.Meter()
	m.ChargeCPU(r.prof.SchedCPUPerJob)
	m.AddVMem(r.prof.PerJobVMem + r.prof.VMemLeakPerJob)
	m.AddRSS(r.prof.PerJobRSS)
	r.jobs++
	r.launch(nodes, r.prof.LoadMsgBytes, func(res comm.Result) {
		if done != nil {
			done(res.DeliveredElapsed)
		}
	})
}

// TerminateJob implements RM.
func (r *ShardedCentralized) TerminateJob(nodes []cluster.NodeID, done func(time.Duration)) {
	m := r.Meter()
	m.ChargeCPU(r.prof.SchedCPUPerJob / 2)
	r.launch(nodes, r.prof.TermMsgBytes, func(res comm.Result) {
		m.AddVMem(-r.prof.PerJobVMem) // the leak stays
		m.AddRSS(-r.prof.PerJobRSS)
		if r.jobs > 0 {
			r.jobs--
		}
		if done != nil {
			done(res.Elapsed)
		}
	})
}

// ShardedESlurm is the sharded twin of the ESlurm master: two-level
// dispatch through the cluster's satellites, each fanning its contiguous
// compute group out over a width-w tree. Satellite watchdog, adoption
// and reallocation are simplified to origin-direct rerouting (see
// comm.ShardBroadcaster.BroadcastRelayed); the memory/CPU charge model
// reuses core.DefaultConfig.
type ShardedESlurm struct {
	cluster *cluster.ShardedCluster
	cfg     core.Config
	b       *comm.ShardBroadcaster
	hb      *hbTicker
}

// NewShardedESlurm builds the sharded ESlurm twin (the cluster must have
// satellite nodes configured).
func NewShardedESlurm(c *cluster.ShardedCluster) *ShardedESlurm {
	return &ShardedESlurm{cluster: c, cfg: core.DefaultConfig(), b: comm.NewShardBroadcaster(c)}
}

// Name implements RM.
func (e *ShardedESlurm) Name() string { return "ESlurm" }

// Meter implements RM.
func (e *ShardedESlurm) Meter() *cluster.ResourceMeter { return &e.cluster.Master().Meter }

// Start implements RM.
func (e *ShardedESlurm) Start() {
	m := e.Meter()
	n := int64(len(e.cluster.Computes()))
	sats := e.cluster.Satellites()
	m.AddVMem(e.cfg.BaseVMem + int64(len(sats))*e.cfg.MasterPerSatState)
	m.AddRSS(e.cfg.BaseRSS + n*e.cfg.PerNodeState)
	for _, s := range sats {
		sm := &e.cluster.Node(s).Meter
		sm.AddVMem(e.cfg.SatelliteBaseVMem)
		sm.AddRSS(e.cfg.SatelliteBaseRSS + n*e.cfg.SatellitePerNodeRSS/int64(len(sats)))
	}
	if e.cfg.HeartbeatInterval > 0 {
		t := e.cluster.Engine(e.cluster.Master().ID).Every(e.cfg.HeartbeatInterval, e.heartbeat)
		e.hb = &hbTicker{stop: t.Stop}
	}
}

// Stop implements RM.
func (e *ShardedESlurm) Stop() {
	if e.hb != nil {
		e.hb.stop()
	}
}

// heartbeat probes the satellite pool (ESlurm's master only ever talks
// to its handful of satellites — the flat socket profile of Fig. 7e).
func (e *ShardedESlurm) heartbeat() {
	master := e.cluster.Master().ID
	sats := e.cluster.Satellites()
	e.Meter().ChargeCPU(time.Duration(len(sats)) * e.cfg.PerResponseCPU)
	e.b.BroadcastStar(master, sats, e.cfg.HeartbeatMsgBytes, nil)
}

func (e *ShardedESlurm) dispatch(nodes []cluster.NodeID, size int, done func(comm.Result)) {
	master := e.cluster.Master().ID
	sats := e.cluster.Satellites()
	e.Meter().ChargeCPU(time.Duration(len(sats)) * e.cfg.MasterPerTaskDispatch)
	e.b.BroadcastRelayed(master, sats, nodes, size, e.cfg.TreeWidth, done)
}

// LoadJob implements RM.
func (e *ShardedESlurm) LoadJob(nodes []cluster.NodeID, done func(time.Duration)) {
	m := e.Meter()
	m.ChargeCPU(e.cfg.SchedCPUPerJob)
	m.AddVMem(e.cfg.PerJobState)
	e.dispatch(nodes, e.cfg.JobLoadMsgBytes, func(res comm.Result) {
		if done != nil {
			done(res.DeliveredElapsed)
		}
	})
}

// TerminateJob implements RM.
func (e *ShardedESlurm) TerminateJob(nodes []cluster.NodeID, done func(time.Duration)) {
	m := e.Meter()
	m.ChargeCPU(e.cfg.SchedCPUPerJob / 2)
	e.dispatch(nodes, e.cfg.JobTermMsgBytes, func(res comm.Result) {
		m.AddVMem(-e.cfg.PerJobState)
		if done != nil {
			done(res.Elapsed)
		}
	})
}

// NewShardedByName builds the sharded twin of one of the six comparison
// RMs by its Fig. 7 name. It panics on unknown names — a driver bug.
func NewShardedByName(name string, c *cluster.ShardedCluster) RM {
	switch name {
	case "SGE":
		return NewShardedCentralized(c, SGEProfile())
	case "Torque":
		return NewShardedCentralized(c, TorqueProfile())
	case "OpenPBS":
		return NewShardedCentralized(c, OpenPBSProfile())
	case "LSF":
		return NewShardedCentralized(c, LSFProfile())
	case "Slurm":
		return NewShardedCentralized(c, SlurmProfile())
	case "ESlurm":
		return NewShardedESlurm(c)
	default:
		panic("rm: unknown sharded RM " + name)
	}
}
