package fleet

import (
	"fmt"
	"math"
	"sort"
)

// Scheduling policies. The replay loop is policy-agnostic: it asks a
// Policy how to order the queue and whether a blocked queue head may
// preempt running work, and everything else — EASY reservations,
// backfill, eviction bookkeeping, determinism guarantees — is shared.
// A policy sees jobs only through JobView and the replay only through
// PolicyState, so policies cannot reach the mutable state and cannot
// break the bit-identity contract: Less must be a strict weak ordering
// that ends in the TraceIdx tie-break, which makes every queue order a
// pure function of the trace.

// JobView is the policy-visible projection of one job, queued or
// running.
type JobView struct {
	ID       string
	TraceIdx int // trace position: the final deterministic tie-breaker
	Submit   float64
	// Ready is the instant the job (re-)entered the queue: Submit on
	// arrival, the eviction or preemption instant on requeue. For a
	// running job it is the entry's ready at placement time.
	Ready    float64
	Deadline float64 // 0 = none
	Priority int
	Tenant   string  // resolved: never empty
	Weight   float64 // resolved: always > 0
	Nodes    int     // demand in whole nodes
	Running  bool
	Finish   float64 // projected completion; running jobs only
}

// PolicyState is the read-only replay context handed to policy
// decisions.
type PolicyState interface {
	// Now is the current virtual instant.
	Now() float64
	// TenantUsage is the tenant's accrued GPU-seconds: completed and
	// evicted segments plus the elapsed part of live runs.
	TenantUsage(tenant string) float64
}

// Policy orders the queue and arbitrates preemption. Implementations
// must be stateless (or immutable after construction): the same Policy
// value is shared across replays and goroutines.
type Policy interface {
	// Name is the registry key ("fifo", "priority", ...).
	Name() string
	// Less reports whether a runs before b in the queue. It must define
	// a strict weak ordering and break final ties on TraceIdx, so the
	// queue order is total and deterministic.
	Less(ps PolicyState, a, b JobView) bool
	// Preempts reports whether a blocked queue head may evict the given
	// running job to make room. The replay only asks when the free node
	// count cannot cover the head's demand, evicts least-entitled
	// victims first, and only commits when the freed nodes actually
	// cover the demand — a policy returning true never causes an
	// eviction that cannot help the head.
	Preempts(ps PolicyState, head, running JobView) bool
}

// DefaultPolicy is the policy used when a trace or fleet names none.
const DefaultPolicy = "fifo"

// policies is the fixed registry, in documentation order.
var policies = []Policy{fifoPolicy{}, priorityPolicy{}, edfPolicy{}, fairPolicy{}}

// PolicyNames lists the registered policy names in a stable order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name()
	}
	return names
}

// PolicyByName resolves a policy ("" = DefaultPolicy).
func PolicyByName(name string) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	for _, p := range policies {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (have %v)", name, PolicyNames())
}

// fifoPolicy is the historical scheduler: strict (ready, trace index)
// order, no preemption. It is differential-tested bit-identical to the
// pre-policy code via the committed fleet12 golden.
type fifoPolicy struct{}

func (fifoPolicy) Name() string { return "fifo" }

func (fifoPolicy) Less(_ PolicyState, a, b JobView) bool {
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.TraceIdx < b.TraceIdx
}

func (fifoPolicy) Preempts(PolicyState, JobView, JobView) bool { return false }

// priorityPolicy runs strict priority tiers (higher Priority first,
// FIFO inside a tier) and preempts: a blocked head evicts
// strictly-lower-priority running jobs, lowest tier first, when that
// frees enough nodes.
type priorityPolicy struct{}

func (priorityPolicy) Name() string { return "priority" }

func (priorityPolicy) Less(_ PolicyState, a, b JobView) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.TraceIdx < b.TraceIdx
}

func (priorityPolicy) Preempts(_ PolicyState, head, running JobView) bool {
	return head.Priority > running.Priority
}

// edfPolicy is earliest-deadline-first: jobs with deadlines run before
// jobs without, nearer deadlines first, FIFO among the deadline-free.
// No preemption — EDF here only reorders the queue; started work keeps
// its slice.
type edfPolicy struct{}

func (edfPolicy) Name() string { return "edf" }

func deadlineOf(v JobView) float64 {
	if v.Deadline > 0 {
		return v.Deadline
	}
	return math.Inf(1)
}

func (edfPolicy) Less(_ PolicyState, a, b JobView) bool {
	da, db := deadlineOf(a), deadlineOf(b)
	if da != db {
		return da < db
	}
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.TraceIdx < b.TraceIdx
}

func (edfPolicy) Preempts(PolicyState, JobView, JobView) bool { return false }

// fairPolicy is weighted fair-share across tenants: the queue orders by
// accrued GPU-seconds over weight, ascending, so the tenant furthest
// below its share runs next. Usage accrues deterministically (completed
// and evicted segments in replay order, live runs by slice order), and
// placement at one instant contributes nothing at that instant — the
// share converges over the trace, not within a single placement pass.
// No preemption.
type fairPolicy struct{}

func (fairPolicy) Name() string { return "fair" }

func (fairPolicy) Less(ps PolicyState, a, b JobView) bool {
	ua := ps.TenantUsage(a.Tenant) / a.Weight
	ub := ps.TenantUsage(b.Tenant) / b.Weight
	if ua != ub {
		return ua < ub
	}
	if a.Ready != b.Ready {
		return a.Ready < b.Ready
	}
	return a.TraceIdx < b.TraceIdx
}

func (fairPolicy) Preempts(PolicyState, JobView, JobView) bool { return false }

// queuedView projects a queue entry for policy decisions.
func (st *state) queuedView(q *qentry) JobView {
	return JobView{
		ID:       q.j.job.ID,
		TraceIdx: q.j.idx,
		Submit:   q.j.job.Submit,
		Ready:    q.ready,
		Deadline: q.j.job.Deadline,
		Priority: q.j.job.Priority,
		Tenant:   q.j.tenant,
		Weight:   q.j.weight,
		Nodes:    q.j.nodes,
	}
}

// runView projects a running slice for preemption decisions.
func (st *state) runView(r *run) JobView {
	v := st.queuedView(r.q)
	v.Running = true
	v.Finish = r.finish
	return v
}

// Now implements PolicyState.
func (st *state) Now() float64 { return st.clock }

// TenantUsage implements PolicyState: accrued GPU-seconds (completed
// and evicted segments) plus the elapsed part of every live run, in
// slice order — all deterministic accumulation orders.
func (st *state) TenantUsage(tenant string) float64 {
	var u float64
	if i := st.tenantIndex(tenant); i >= 0 {
		u = st.tenantBusy[i].busy
	}
	for _, r := range st.runs {
		if r.q.j.tenant == tenant {
			u += st.gpus(r) * (st.clock - r.segStart)
		}
	}
	return u
}

// preemptFor tries to free enough nodes for a blocked queue head by
// evicting running jobs the policy lets it preempt, least-entitled
// first (the reverse of the policy's queue order). It reports whether
// it evicted anyone. Guards:
//
//   - Only fires when the free node count cannot cover the demand; a
//     head blocked on plan feasibility (not capacity) never evicts.
//     After a successful preemption the free count covers the demand,
//     so the arm cannot re-fire for the same head at the same instant —
//     preemption cannot oscillate.
//   - Only commits when the achievable free count actually covers the
//     demand; otherwise nothing is evicted.
//
// Victims requeue at the current instant with their remaining
// iterations, exactly like a fail_node eviction but accounted under
// Preemptions (no Recovery measurement: preemption is a scheduling
// decision, not a fault).
func (st *state) preemptFor(head *qentry) bool {
	need := head.j.nodes
	free := len(st.freeNodes())
	if free >= need {
		return false
	}
	hv := st.queuedView(head)
	var vics []*run
	for _, r := range st.runs {
		if st.pol.Preempts(st, hv, st.runView(r)) {
			vics = append(vics, r)
		}
	}
	if len(vics) == 0 {
		return false
	}
	// Least-entitled first: sort by the policy's queue order and walk it
	// back to front.
	sort.SliceStable(vics, func(a, b int) bool {
		return st.pol.Less(st, st.queuedView(vics[a].q), st.queuedView(vics[b].q))
	})
	achievable := free
	cut := len(vics)
	for cut > 0 && achievable < need {
		cut--
		achievable += len(vics[cut].nodes)
	}
	if achievable < need {
		return false
	}
	chosen := vics[cut:]
	// Book progress and requeue in trace order so busy-seconds accrue in
	// a replay-stable sequence.
	sort.SliceStable(chosen, func(a, b int) bool { return chosen[a].q.j.idx < chosen[b].q.j.idx })
	drop := make(map[*run]bool, len(chosen))
	for _, r := range chosen {
		drop[r] = true
	}
	keep := st.runs[:0]
	for _, r := range st.runs {
		if !drop[r] {
			keep = append(keep, r)
		}
	}
	st.runs = keep
	for _, r := range chosen {
		rem := st.segmentProgress(r)
		q := r.q
		q.remIters = rem
		q.ready = st.clock
		q.res.Preemptions++
		for _, n := range r.nodes {
			if !st.failed[n] {
				st.free[n] = true
			}
		}
		st.queue = append(st.queue, q)
	}
	st.sortQueue()
	return true
}
