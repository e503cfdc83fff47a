// Data-provisioning optimization sketched in §III-C and §VII of the paper:
// because the metadata registry knows, ahead of time, which files a task
// will need, where they are (or will be) produced and where the task is
// scheduled, data can be pushed towards the consumer's datacenter *before*
// the task starts, hiding the wide-area transfer behind the producer/consumer
// gap instead of paying it as idle time. PlanProvisioning takes a workflow,
// a task schedule and the cloud topology and produces a ProvisionPlan: one
// planned transfer per (file, consumer site) pair whose producer runs in a
// different datacenter; EvaluateProvisioning estimates how much task idle
// time the plan removes. (Folded in from the former internal/provision
// package, which only this package consumed.)
package experiments

import (
	"fmt"
	"sort"
	"time"

	"geomds/internal/cloud"
	"geomds/internal/workflow"
)

// ProvisionTransfer is one planned data movement: a file produced in one datacenter
// that a scheduled task will read from another datacenter.
type ProvisionTransfer struct {
	// File is the file to move.
	File string
	// Size is the file's size in bytes.
	Size int64
	// From is the datacenter where the file is produced (or staged).
	From cloud.SiteID
	// To is the datacenter of the consuming task.
	To cloud.SiteID
	// Producer is the task producing the file ("" for external inputs).
	Producer string
	// Consumers are the scheduled tasks at the destination that read the file.
	Consumers []string
	// EarliestStart is the simulated time at which the transfer can begin
	// (the producer's estimated finish time; 0 for external inputs).
	EarliestStart time.Duration
	// NeededBy is the earliest simulated time any consumer may start.
	NeededBy time.Duration
}

// Duration estimates the wide-area transfer time of this movement on the
// given topology (latency plus size over the link's bandwidth).
func (t ProvisionTransfer) Duration(topo *cloud.Topology) time.Duration {
	link := topo.Link(t.From, t.To)
	d := link.RTT
	if link.BandwidthMBps > 0 && t.Size > 0 {
		seconds := float64(t.Size) / (link.BandwidthMBps * 1e6)
		d += time.Duration(seconds * float64(time.Second))
	}
	return d
}

// Slack is the time window available to hide the transfer: the gap between
// the moment the file exists and the moment a consumer may need it.
func (t ProvisionTransfer) Slack() time.Duration { return t.NeededBy - t.EarliestStart }

// ProvisionPlan is the set of transfers needed to make every remote input of a
// scheduled workflow locally available before its consumer starts.
type ProvisionPlan struct {
	// Workflow is the planned workflow's name.
	Workflow string
	// Transfers lists the planned movements, ordered by EarliestStart.
	Transfers []ProvisionTransfer
}

// TotalBytes returns the total volume moved by the plan.
func (p ProvisionPlan) TotalBytes() int64 {
	var sum int64
	for _, t := range p.Transfers {
		sum += t.Size
	}
	return sum
}

// PlanProvisioning computes the prefetch plan for a workflow under a given schedule.
// A transfer is planned for every (file, consumer-site) pair where the file
// is produced (or staged) in a different site than the consumer. Estimated
// task start/finish times come from a critical-path pass that only accounts
// for compute time — the optimistic schedule the provisioner tries to
// preserve by hiding transfers.
func PlanProvisioning(w *workflow.Workflow, sched workflow.Schedule, dep *cloud.Deployment) (ProvisionPlan, error) {
	if err := w.Validate(); err != nil {
		return ProvisionPlan{}, err
	}
	if err := sched.Validate(w, dep); err != nil {
		return ProvisionPlan{}, err
	}
	order, err := w.TopoSort()
	if err != nil {
		return ProvisionPlan{}, err
	}

	// Estimated per-task start/finish times: a task starts when its last
	// dependency finishes and its node (which runs its tasks sequentially,
	// in topological order) becomes free. Data access is assumed free here —
	// this is the optimistic schedule the provisioner tries to preserve by
	// hiding transfers inside the resulting gaps.
	start := make(map[string]time.Duration, len(order))
	finish := make(map[string]time.Duration, len(order))
	nodeFree := make(map[cloud.NodeID]time.Duration, dep.NumNodes())
	for _, id := range order {
		task, _ := w.Task(id)
		deps, _ := w.Dependencies(id)
		s := nodeFree[sched[id]]
		for _, d := range deps {
			if finish[d] > s {
				s = finish[d]
			}
		}
		start[id] = s
		finish[id] = s + task.Compute
		nodeFree[sched[id]] = finish[id]
	}

	// Where every file is produced: the site of its producer's node, or the
	// staging site for external inputs (round-robin, matching the engine).
	producedAt := make(map[string]cloud.SiteID)
	producedSize := make(map[string]int64)
	availableAt := make(map[string]time.Duration)
	sites := dep.Topology().Sites()
	for i, f := range w.ExternalInputs {
		producedAt[f.Name] = sites[i%len(sites)].ID
		producedSize[f.Name] = f.Size
		availableAt[f.Name] = 0
	}
	for _, id := range order {
		task, _ := w.Task(id)
		site := dep.SiteOf(sched[id])
		for _, out := range task.Outputs {
			producedAt[out.Name] = site
			producedSize[out.Name] = out.Size
			availableAt[out.Name] = finish[id]
		}
	}

	// Group needed remote inputs by (file, destination site).
	type key struct {
		file string
		to   cloud.SiteID
	}
	grouped := make(map[key]*ProvisionTransfer)
	for _, id := range order {
		task, _ := w.Task(id)
		consumerSite := dep.SiteOf(sched[id])
		for _, in := range task.Inputs {
			from, known := producedAt[in]
			if !known {
				return ProvisionPlan{}, fmt.Errorf("provision: input %q of task %q has no known producer", in, id)
			}
			if from == consumerSite {
				continue // already local
			}
			k := key{file: in, to: consumerSite}
			tr, ok := grouped[k]
			if !ok {
				producer := ""
				if p := w.Producer(in); p != nil {
					producer = p.ID
				}
				tr = &ProvisionTransfer{
					File:          in,
					Size:          producedSize[in],
					From:          from,
					To:            consumerSite,
					Producer:      producer,
					EarliestStart: availableAt[in],
					NeededBy:      start[id],
				}
				grouped[k] = tr
			}
			tr.Consumers = append(tr.Consumers, id)
			if start[id] < tr.NeededBy {
				tr.NeededBy = start[id]
			}
		}
	}

	plan := ProvisionPlan{Workflow: w.Name, Transfers: make([]ProvisionTransfer, 0, len(grouped))}
	for _, tr := range grouped {
		sort.Strings(tr.Consumers)
		plan.Transfers = append(plan.Transfers, *tr)
	}
	sort.Slice(plan.Transfers, func(i, j int) bool {
		a, b := plan.Transfers[i], plan.Transfers[j]
		if a.EarliestStart != b.EarliestStart {
			return a.EarliestStart < b.EarliestStart
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.To < b.To
	})
	return plan, nil
}

// ProvisionEstimate summarizes the benefit of executing the plan: for every transfer,
// the idle time a consumer would have suffered fetching the file on demand
// (the full transfer duration) versus the residual idle time when the
// transfer starts as soon as the file exists (only the part that does not fit
// in the producer/consumer slack).
type ProvisionEstimate struct {
	// Transfers is the number of planned movements.
	Transfers int
	// Bytes is the total volume moved.
	Bytes int64
	// OnDemandIdle is the aggregate idle time without provisioning.
	OnDemandIdle time.Duration
	// ResidualIdle is the aggregate idle time left with provisioning.
	ResidualIdle time.Duration
	// FullyHidden counts transfers that fit entirely inside their slack.
	FullyHidden int
}

// IdleReduction returns the fraction of on-demand idle time removed by the
// plan, in [0, 1]. It returns 0 when there is nothing to hide.
func (e ProvisionEstimate) IdleReduction() float64 {
	if e.OnDemandIdle <= 0 {
		return 0
	}
	return float64(e.OnDemandIdle-e.ResidualIdle) / float64(e.OnDemandIdle)
}

// EvaluateProvisioning computes the ProvisionEstimate of a plan on the given topology.
func EvaluateProvisioning(plan ProvisionPlan, topo *cloud.Topology) ProvisionEstimate {
	est := ProvisionEstimate{Transfers: len(plan.Transfers), Bytes: plan.TotalBytes()}
	for _, tr := range plan.Transfers {
		d := tr.Duration(topo)
		est.OnDemandIdle += d
		residual := d - tr.Slack()
		if residual <= 0 {
			est.FullyHidden++
			continue
		}
		est.ResidualIdle += residual
	}
	return est
}
