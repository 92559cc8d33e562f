package placement

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// NodeState is the balancer's view of one worker node at decision time.
type NodeState struct {
	Name string
	// MC is the maximum service capacity MC_i: model updates the node can
	// aggregate simultaneously (computed offline, Appendix E).
	MC float64
	// Arrival is k_{i,t}, the current arrival rate of updates routed to the
	// node (updates/sec).
	Arrival float64
	// ExecTime is E_{i,t}, the average time to aggregate one update.
	ExecTime sim.Duration
	// Assigned counts updates placed on the node by the current decision
	// (occupancy added on top of the measured load).
	Assigned int
}

// Residual returns RC_{i,t} = MC_i − k_{i,t}·E_{i,t} − Assigned: how many
// more updates the node can absorb.
func (n *NodeState) Residual() float64 {
	return n.MC - n.Arrival*n.ExecTime.Seconds() - float64(n.Assigned)
}

// QueueEstimate returns Q_{i,t} = k_{i,t}·E_{i,t}, the coarse-grained queue
// length estimate of §5.1.
func (n *NodeState) QueueEstimate() float64 {
	return n.Arrival * n.ExecTime.Seconds()
}

// ErrCapacity is returned when the cluster cannot absorb the demand.
var ErrCapacity = errors.New("placement: demand exceeds cluster residual capacity")

// Assignment is the allocation-lean placement result: Assignment[i] is the
// number of updates placed on the i-th node of the input slice. It avoids
// the map construction and string hashing of the name-keyed API on hot
// control-plane paths (systems expand it directly into per-job node
// indices).
type Assignment []int

// Total returns the number of updates placed.
func (a Assignment) Total() int {
	t := 0
	for _, c := range a {
		t += c
	}
	return t
}

// NodesUsed counts nodes that received at least one update.
func (a Assignment) NodesUsed() int {
	n := 0
	for _, c := range a {
		if c > 0 {
			n++
		}
	}
	return n
}

// ToMap renders the assignment in the name-keyed form of Policy.Place.
// Nodes with zero updates are omitted, matching the scan-based original.
func (a Assignment) ToMap(nodes []*NodeState) map[string]int {
	out := make(map[string]int, len(a))
	for i, c := range a {
		if c > 0 {
			out[nodes[i].Name] += c
		}
	}
	return out
}

// Policy assigns count identical updates to nodes, returning per-node counts
// keyed by node name. Implementations must not mutate the input slice order.
type Policy interface {
	Name() string
	// Place distributes count updates; it may exceed residual capacity only
	// when the whole cluster is saturated (overflow spreads round-robin,
	// matching the paper's "service capacity of all nodes fully consumed"
	// regime for 100 updates in Fig. 8).
	Place(count int, nodes []*NodeState) (map[string]int, error)
	// PlaceIndexed is Place returning the slice-based Assignment (node
	// index → count) without building a map. Both forms bump each node's
	// Assigned by the counts they return.
	PlaceIndexed(count int, nodes []*NodeState) (Assignment, error)
}

// BestFit is LIFL's locality-aware policy: each update goes to the feasible
// node with the *smallest* positive residual capacity, concentrating load
// onto the fewest nodes (§5.1).
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "bestfit" }

// Place implements Policy.
func (p BestFit) Place(count int, nodes []*NodeState) (map[string]int, error) {
	return placeMap(p, count, nodes)
}

// PlaceIndexed implements Policy. A node chosen by BestFit keeps the
// smallest residual until it drops below 1 (its residual only shrinks while
// every other candidate's stands still), so the per-update greedy scan
// reduces to a single ascending sweep over the candidates, each absorbing
// floor(residual) updates.
func (BestFit) PlaceIndexed(count int, nodes []*NodeState) (Assignment, error) {
	out, remaining, err := prep(count, nodes)
	if err != nil || remaining == 0 {
		return out, err
	}
	cands := feasible(nodes)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].res() != cands[j].res() {
			return cands[i].res() < cands[j].res()
		}
		return cands[i].name < cands[j].name
	})
	for i := range cands {
		if remaining == 0 {
			break
		}
		c := &cands[i]
		k := takeWhileFeasible(c.base, c.assigned, remaining)
		commit(out, nodes, c.idx, k)
		remaining -= k
	}
	spreadOverflow(out, nodes, remaining)
	return out, nil
}

// WorstFit spreads each update to the node with the *largest* residual
// capacity — the behaviour of Knative's "Least Connection" load balancing
// used by the SL-H baseline (§6.1).
type WorstFit struct{}

// Name implements Policy.
func (WorstFit) Name() string { return "worstfit" }

// Place implements Policy.
func (p WorstFit) Place(count int, nodes []*NodeState) (map[string]int, error) {
	return placeMap(p, count, nodes)
}

// PlaceIndexed implements Policy. Candidates live in a max-heap keyed by
// (residual, name); the top absorbs updates until its residual crosses the
// runner-up's (the point at which the per-update scan would switch nodes),
// then re-enters the heap if still feasible.
func (WorstFit) PlaceIndexed(count int, nodes []*NodeState) (Assignment, error) {
	out, remaining, err := prep(count, nodes)
	if err != nil || remaining == 0 {
		return out, err
	}
	h := maxHeap(feasible(nodes))
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for remaining > 0 && len(h) > 0 {
		c := h.pop()
		var k int
		if len(h) == 0 {
			k = takeWhileFeasible(c.base, c.assigned, remaining)
		} else {
			k = takeWhileWinning(c, h[0].res(), h[0].name, remaining)
		}
		commit(out, nodes, c.idx, k)
		remaining -= k
		c.assigned += k
		if c.res() >= 1 {
			h.push(c)
		}
	}
	spreadOverflow(out, nodes, remaining)
	return out, nil
}

// FirstFit takes the first node (by input order) with room — minimal search
// complexity, no locality awareness.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "firstfit" }

// Place implements Policy.
func (p FirstFit) Place(count int, nodes []*NodeState) (map[string]int, error) {
	return placeMap(p, count, nodes)
}

// PlaceIndexed implements Policy: one sweep in input order, each node
// absorbing updates until its residual drops below 1.
func (FirstFit) PlaceIndexed(count int, nodes []*NodeState) (Assignment, error) {
	out, remaining, err := prep(count, nodes)
	if err != nil || remaining == 0 {
		return out, err
	}
	for i, n := range nodes {
		if remaining == 0 {
			break
		}
		base := n.MC - n.QueueEstimate()
		k := takeWhileFeasible(base, n.Assigned, remaining)
		commit(out, nodes, i, k)
		remaining -= k
	}
	spreadOverflow(out, nodes, remaining)
	return out, nil
}

// placeMap adapts PlaceIndexed to the name-keyed result of Policy.Place.
func placeMap(p Policy, count int, nodes []*NodeState) (map[string]int, error) {
	a, err := p.PlaceIndexed(count, nodes)
	if err != nil {
		return nil, err
	}
	return a.ToMap(nodes), nil
}

// prep validates the inputs and allocates the result.
func prep(count int, nodes []*NodeState) (Assignment, int, error) {
	if count < 0 {
		return nil, 0, fmt.Errorf("placement: negative count %d", count)
	}
	if len(nodes) == 0 {
		return nil, 0, errors.New("placement: no nodes")
	}
	return make(Assignment, len(nodes)), count, nil
}

// cand is one feasible node in the candidate set. base is the load-derived
// part of the residual (MC − QueueEstimate, the same sub-expression
// NodeState.Residual evaluates first), computed exactly once per decision;
// the live residual base − float64(assigned) is then bit-identical to
// NodeState.Residual, so batch boundaries land exactly where the per-update
// scan's comparisons do.
type cand struct {
	idx      int
	base     float64
	assigned int
	name     string
}

func (c *cand) res() float64 { return c.base - float64(c.assigned) }

// feasible collects the candidates with residual ≥ 1. Infeasible nodes can
// never re-enter: residuals only decrease during a decision.
func feasible(nodes []*NodeState) []cand {
	cands := make([]cand, 0, len(nodes))
	for i, n := range nodes {
		c := cand{idx: i, base: n.MC - n.QueueEstimate(), assigned: n.Assigned, name: n.Name}
		if c.res() >= 1 {
			cands = append(cands, c)
		}
	}
	return cands
}

// commit records k updates onto node idx.
func commit(out Assignment, nodes []*NodeState, idx, k int) {
	out[idx] += k
	nodes[idx].Assigned += k
}

// takeWhileFeasible returns how many consecutive updates (≤ remaining) a
// node with the given base residual and running assignment absorbs before
// its residual drops below 1 — floor(residual) in exact arithmetic. The
// estimate is corrected against the exact floating-point predicate of the
// per-update scan (residual = base − float64(assigned) compared to 1) so
// batching never shifts an assignment across a rounding boundary.
func takeWhileFeasible(base float64, assigned, remaining int) int {
	if remaining == 0 || base-float64(assigned) < 1 {
		return 0
	}
	k := int(base - float64(assigned))
	if k < 1 {
		k = 1
	}
	if k > remaining {
		k = remaining
	}
	for k > 1 && base-float64(assigned+k-1) < 1 {
		k--
	}
	for k < remaining && base-float64(assigned+k) >= 1 {
		k++
	}
	return k
}

// takeWhileWinning returns how many consecutive updates (≤ remaining) the
// heap top c absorbs while it still beats the runner-up (residual r2, name
// name2) under WorstFit's (largest residual, smallest name) order and stays
// feasible. As with takeWhileFeasible, the closed-form estimate is snapped
// to the exact per-update comparison semantics.
func takeWhileWinning(c cand, r2 float64, name2 string, remaining int) int {
	wins := func(j int) bool {
		rj := c.base - float64(c.assigned+j-1)
		if rj < 1 {
			return false
		}
		return rj > r2 || (rj == r2 && c.name < name2)
	}
	if remaining == 0 || !wins(1) {
		return 0
	}
	k := int(c.res()-r2) + 1
	if k < 1 {
		k = 1
	}
	if k > remaining {
		k = remaining
	}
	for k > 1 && !wins(k) {
		k--
	}
	for k < remaining && wins(k+1) {
		k++
	}
	return k
}

// maxHeap is a binary max-heap of candidates ordered by (residual desc,
// name asc) — exactly the preference order of WorstFit's per-update pick.
type maxHeap []cand

func (h maxHeap) higher(i, j int) bool {
	ri, rj := h[i].res(), h[j].res()
	if ri != rj {
		return ri > rj
	}
	return h[i].name < h[j].name
}

func (h maxHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.higher(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h maxHeap) siftDown(i int) {
	n := len(h)
	for {
		max := i
		if l := 2*i + 1; l < n && h.higher(l, max) {
			max = l
		}
		if r := 2*i + 2; r < n && h.higher(r, max) {
			max = r
		}
		if max == i {
			return
		}
		h[i], h[max] = h[max], h[i]
		i = max
	}
}

func (h *maxHeap) push(c cand) {
	*h = append(*h, c)
	h.siftUp(len(*h) - 1)
}

func (h *maxHeap) pop() cand {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	return top
}

// spreadOverflow distributes updates that no feasible node could absorb:
// round-robin over all nodes in input order, starting at index 0, matching
// the saturated regime of the per-update scan (Fig. 8's 100-update cells).
func spreadOverflow(out Assignment, nodes []*NodeState, remaining int) {
	if remaining <= 0 {
		return
	}
	q, r := remaining/len(nodes), remaining%len(nodes)
	for i := range nodes {
		k := q
		if i < r {
			k++
		}
		if k > 0 {
			commit(out, nodes, i, k)
		}
	}
}

// NodesUsed counts nodes that received at least one update.
func NodesUsed(assign map[string]int) int {
	n := 0
	for _, c := range assign {
		if c > 0 {
			n++
		}
	}
	return n
}

// SortedAssignments renders the assignment deterministically for logs.
func SortedAssignments(assign map[string]int) []string {
	names := make([]string, 0, len(assign))
	for n := range assign {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("%s:%d", n, assign[n]))
	}
	return out
}

// MaxCapacityOffline reproduces Appendix E: increase the offered arrival
// rate k until the measured execution time inflates significantly (the node
// saturates), then MC = k′·E′. probe(k) must return the average execution
// time observed at arrival rate k.
func MaxCapacityOffline(probe func(k float64) sim.Duration, kStart, kStep, inflate float64) float64 {
	if kStart <= 0 || kStep <= 0 {
		panic("placement: non-positive probe parameters")
	}
	base := probe(kStart)
	k := kStart
	for i := 0; i < 10_000; i++ {
		next := k + kStep
		e := probe(next)
		if float64(e) > inflate*float64(base) {
			return next * e.Seconds()
		}
		k = next
	}
	return k * probe(k).Seconds()
}

// ---- Level one of the geo fabric's two-level placement ----
//
// The engine above places *updates onto nodes* inside one cluster (§5.1).
// The cell fabric adds a level above it: *clients onto cells*, decided by
// locality. CellRouter is that first level — a deterministic, seed-stable
// map client → home cell, weighted by region share. The draw for client i
// hashes (seed, i), so it is independent of enumeration order and stable
// as the population grows: adding clients never re-homes existing ones.

// CellRouter routes clients to their home cell by region weight.
type CellRouter struct {
	cum  []float64 // cumulative normalized weights, cum[len-1] == 1
	seed uint64
}

// NewCellRouter builds a router over cells weighted by `weights` (nil or
// empty with cells > 0 means uniform). Weights must be finite and
// non-negative with a positive sum.
func NewCellRouter(cells int, weights []float64, seed int64) (*CellRouter, error) {
	if cells < 1 {
		return nil, fmt.Errorf("placement: router needs >= 1 cell (got %d)", cells)
	}
	if len(weights) == 0 {
		weights = make([]float64, cells)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != cells {
		return nil, fmt.Errorf("placement: %d region weights for %d cells", len(weights), cells)
	}
	total := 0.0
	for _, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) { // NaN fails w >= 0
			return nil, fmt.Errorf("placement: region weight %v must be finite and >= 0", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("placement: region weights sum to %v (need > 0)", total)
	}
	r := &CellRouter{cum: make([]float64, cells), seed: uint64(seed)}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		r.cum[i] = acc
	}
	r.cum[cells-1] = 1 // absorb rounding so the last region owns [cum[n-2], 1)
	return r, nil
}

// Cells returns the number of cells the router spreads over.
func (r *CellRouter) Cells() int { return len(r.cum) }

// Home returns client i's home cell: a uniform hash of (seed, i) mapped
// through the cumulative region weights. O(cells) per call, branch-free.
func (r *CellRouter) Home(client int) int {
	return cellIndex(r.cum, hash01(r.seed^(uint64(client)+1)*0x9E3779B97F4A7C15))
}

// Counts partitions clients 0..n-1 across the cells and returns the
// per-cell population sizes. It is Home written out with the table slice
// hoisted out of the loop, which counts millions of clients 10–20%
// faster than calling Home.
func (r *CellRouter) Counts(n int) []int {
	out := make([]int, len(r.cum))
	head := r.cum[:len(r.cum)-1]
	for i := 0; i < n; i++ {
		u := hash01(r.seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
		k := 0
		for _, c := range head {
			k += b2i(c < u)
		}
		out[k]++
	}
	return out
}

// cellIndex maps a uniform draw u in [0, 1) to the cell owning it under
// the cumulative weight table cum (len >= 1), counting without branches
// the entries of cum[:len(cum)-1] that lie below u. That count equals
// sort.SearchFloat64s(cum, u), the smallest i with cum[i] >= u: the
// builders (NewCellRouter, ElasticRouter.snapshot) make cum[:len(cum)-1]
// a running sum of non-negative terms, hence non-decreasing, so the
// entries below u form a prefix; and they force the last entry to 1 > u,
// so the search always stops inside the table. A rounded running sum may
// put cum[len(cum)-2] above that final 1; the search predicate cum[i] >= u
// still holds for both, so the two agree there as well. The table must
// hold no NaN, which the builders' weight validation guarantees.
func cellIndex(cum []float64, u float64) int {
	k := 0
	for _, c := range cum[:len(cum)-1] {
		k += b2i(c < u)
	}
	return k
}

// b2i converts a bool to 0 or 1; on amd64 the compiler lowers it to a
// flag move (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hash01 maps a 64-bit key to a uniform float64 in [0, 1) via SplitMix64
// finalization — deterministic across platforms, no RNG state to carry.
func hash01(x uint64) float64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
