// Package aggcore implements LIFL's aggregator: the step-based processing
// model of Appendix G (Fig. 14). An aggregator is a multiple-producer,
// single-consumer pipeline of three steps — Recv (enqueue incoming updates
// into a FIFO; in LIFL only the shm object key is enqueued), Agg (dequeue
// and fold one update into the cumulative FedAvg state, repeating until the
// aggregation goal is met), and Send (emit the aggregate to the designated
// consumer). Recv and Agg overlap, which is exactly what enables eager
// aggregation (§5.4); lazy aggregation defers Agg until the whole batch has
// arrived (Fig. 1).
//
// Aggregators are stateless across rounds and use homogenized runtimes, so
// a warm leaf can be converted into a middle or top aggregator with nothing
// but a role flip (§5.3). Updates reference shared-memory objects; an
// update consumed by Agg releases its reference, and Update.Release frees
// updates a round retires unconsumed, so shm slabs never leak across
// rounds.
//
// Buffer ownership (host memory only; the shm accounting is separate).
// An aggregator draws its host buffers from the owning system's
// tensor.Pool. Assign acquires the fedavg state; send computes the
// aggregate into a pooled tensor, returns the state, releases the consumed
// updates' shm references and returns their pooled tensors, because each
// aggregate has exactly one consumer. The consumer of the final aggregate
// (the OnComplete callback) returns it once it has installed the model. A
// discarded update's tensor goes back at the discard. A failed instance
// returns nothing: FailoverUpdates hands its updates on for replay and
// leaves its state to the GC.
//
// Layer (DESIGN.md): component model under internal/systems — the
// Recv/Agg/Send aggregator pipeline every system assembles its hierarchy
// (or async buffer) from.
package aggcore
