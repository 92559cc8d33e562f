package placement

import (
	"fmt"
	"math"
	"sort"
)

// ---- Elastic level one: client → cell routing under live join/drain ----
//
// CellRouter's hash is stable as the population grows, but its cell set is
// frozen. ElasticRouter extends the same draw to a mutable cell set with a
// removal-stable contract, the two halves of which the reconfiguration
// property harness (internal/planprop) pins across randomized plans:
//
//   - Adds never re-home existing clients. Joining a cell (or reweighing
//     one) seals the current routing epoch: clients that already arrived
//     keep resolving through the weight snapshot of their arrival epoch,
//     so only future arrivals see the new topology.
//   - Drains re-home exactly the drained cell's clients. A drain records
//     the survivors' weight snapshot; a client whose draw lands on a
//     drained cell re-draws — salted by the drained cell's id, so the
//     re-draw is deterministic and independent per client — over that
//     snapshot, chaining if the new home later drained too. Clients homed
//     elsewhere never consult the record and never move.
//
// With no topology changes ElasticRouter is bit-identical to CellRouter:
// one epoch, the same cumulative weights, the same SplitMix64 draw.

// ElasticRouter routes clients to their home cell by region weight across
// a cell set that grows and shrinks mid-run. Cell ids are never reused:
// joins always allocate the next free index.
type ElasticRouter struct {
	seed    uint64
	weight  []float64 // current routing weight per cell id (live cells)
	live    []bool
	drains  []drainRecord // per cell id; zero record = never drained
	epochs  []epoch
	arrived int // clients 0..arrived-1 have arrived (Extend grows this)
}

// epoch is a sealed routing snapshot: clients arriving while it was
// current (first <= client < next epoch's first) draw through it forever.
type epoch struct {
	first int
	cum   []float64
	ids   []int
}

// drainRecord is the survivor snapshot taken when a cell drained; clients
// homed on the drained cell re-draw over it.
type drainRecord struct {
	cum []float64
	ids []int
}

// NewElasticRouter builds a router over the initial cells, matching
// NewCellRouter's validation and — until the first reconfiguration — its
// routing bit for bit.
func NewElasticRouter(cells int, weights []float64, seed int64) (*ElasticRouter, error) {
	base, err := NewCellRouter(cells, weights, seed)
	if err != nil {
		return nil, err
	}
	r := &ElasticRouter{seed: uint64(seed)}
	if len(weights) == 0 {
		weights = make([]float64, cells)
		for i := range weights {
			weights[i] = 1
		}
	}
	r.weight = append([]float64(nil), weights...)
	r.live = make([]bool, cells)
	r.drains = make([]drainRecord, cells)
	ids := make([]int, cells)
	for i := range r.live {
		r.live[i] = true
		ids[i] = i
	}
	// Adopt the CellRouter's exact cumulative table (including its rounding
	// absorption) as epoch zero, so the static case cannot drift.
	r.epochs = []epoch{{first: 0, cum: base.cum, ids: ids}}
	return r, nil
}

// Cells returns the number of cell ids ever allocated (live and drained).
func (r *ElasticRouter) Cells() int { return len(r.weight) }

// LiveCells returns the live cell count.
func (r *ElasticRouter) LiveCells() int {
	n := 0
	for _, l := range r.live {
		if l {
			n++
		}
	}
	return n
}

// Arrived returns the arrived population (clients 0..Arrived()-1).
func (r *ElasticRouter) Arrived() int { return r.arrived }

// Extend marks n new clients as arrived: they (and only they) route
// through the current topology. Existing clients are untouched.
func (r *ElasticRouter) Extend(n int) {
	if n > 0 {
		r.arrived += n
	}
}

// snapshot builds the cumulative weight table over the live cells.
func (r *ElasticRouter) snapshot() ([]float64, []int) {
	var ids []int
	total := 0.0
	for id, l := range r.live {
		if l {
			ids = append(ids, id)
			total += r.weight[id]
		}
	}
	cum := make([]float64, len(ids))
	acc := 0.0
	for i, id := range ids {
		acc += r.weight[id] / total
		cum[i] = acc
	}
	if len(cum) > 0 {
		cum[len(cum)-1] = 1
	}
	return cum, ids
}

// seal starts a new routing epoch at the current arrived population. If no
// client arrived during the current epoch it is rebuilt in place.
func (r *ElasticRouter) seal() {
	cum, ids := r.snapshot()
	last := &r.epochs[len(r.epochs)-1]
	if last.first == r.arrived {
		last.cum, last.ids = cum, ids
		return
	}
	r.epochs = append(r.epochs, epoch{first: r.arrived, cum: cum, ids: ids})
}

// Join adds a fresh cell with the given routing weight and returns its id.
// Only future arrivals route onto it; no existing client re-homes.
func (r *ElasticRouter) Join(weight float64) (int, error) {
	if !validWeight(weight) {
		return 0, fmt.Errorf("placement: join weight %v must be finite and > 0", weight)
	}
	id := len(r.weight)
	r.weight = append(r.weight, weight)
	r.live = append(r.live, true)
	r.drains = append(r.drains, drainRecord{})
	r.seal()
	return id, nil
}

// SetWeight changes a live cell's routing weight. Only future arrivals see
// the new balance; no existing client re-homes.
func (r *ElasticRouter) SetWeight(cell int, weight float64) error {
	if cell < 0 || cell >= len(r.weight) || !r.live[cell] {
		return fmt.Errorf("placement: weight change on unknown or drained cell %d", cell)
	}
	if !validWeight(weight) {
		return fmt.Errorf("placement: weight %v must be finite and > 0", weight)
	}
	r.weight[cell] = weight
	r.seal()
	return nil
}

// validWeight reports whether w is a usable live-cell routing weight:
// finite and positive (NaN fails the comparison).
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// Drain retires a live cell. Exactly the clients homed on it re-home —
// each by an independent deterministic re-draw over the survivors' weight
// snapshot taken now — and every other client keeps its cell.
func (r *ElasticRouter) Drain(cell int) error {
	if cell < 0 || cell >= len(r.weight) || !r.live[cell] {
		return fmt.Errorf("placement: drain of unknown or drained cell %d", cell)
	}
	if r.LiveCells() == 1 {
		return fmt.Errorf("placement: draining cell %d would leave no live cells", cell)
	}
	r.live[cell] = false
	cum, ids := r.snapshot()
	r.drains[cell] = drainRecord{cum: cum, ids: ids}
	r.seal()
	return nil
}

// Home returns the client's current home cell. The initial draw is the
// client's arrival-epoch snapshot; drained homes chain through their
// survivor snapshots with per-(client, drained-cell) salted re-draws.
// Clients >= Arrived() are treated as future arrivals: they route through
// the current topology.
func (r *ElasticRouter) Home(client int) int {
	e := len(r.epochs) - 1
	if client < r.arrived {
		e = sort.Search(len(r.epochs), func(i int) bool { return r.epochs[i].first > client }) - 1
	}
	ep := r.epochs[e]
	u := hash01(r.seed ^ (uint64(client)+1)*0x9E3779B97F4A7C15)
	cell := ep.ids[cellIndex(ep.cum, u)]
	for !r.live[cell] {
		d := r.drains[cell]
		// Salt the re-draw by the drained cell so each hop of a drain chain
		// is an independent uniform draw, still a pure function of
		// (seed, client, drained cell).
		u = hash01(r.seed ^ (uint64(client)+1)*0x9E3779B97F4A7C15 ^ (uint64(cell)+1)*0xD1B54A32D192ED03)
		cell = d.ids[cellIndex(d.cum, u)]
	}
	return cell
}

// Counts partitions the arrived clients across the cells and returns the
// per-cell population sizes, indexed by cell id (drained cells count 0).
func (r *ElasticRouter) Counts() []int {
	out := make([]int, len(r.weight))
	for i := 0; i < r.arrived; i++ {
		out[r.Home(i)]++
	}
	return out
}
