// Package compress implements the tree-compression processes of the
// paper's §5: deletions in the Blink-tree never rebalance inline (that
// is what keeps their lock footprint at one node, Theorem 1), so
// separate compression processes repair underfull nodes concurrently
// with all other operations.
//
// Map from code to paper sections:
//
//   - scanner.go (§5.1, Fig. 7): Scanner runs procedure
//     compress-level over whole levels, merging or redistributing
//     adjacent siblings until every non-root node holds ≥ k pairs,
//     and collapsing degenerate roots to restore minimal height.
//   - queue.go (§5.4, footnote 17): Queue is the deduplicated set of
//     underfull nodes, keyed by page id and drained
//     highest-level-first ("give priority to nodes having a higher
//     level"), fed by the tree's underfull hook while the deleting
//     process still holds the node's lock.
//   - worker.go (§5.4 modes 1–3): Compressor drains the queue with a
//     single process, a worker pool, or per-deletion processes.
//   - rearrange.go (§5.2–§5.3): the shared merge/redistribute step.
//     It locks three nodes — parent, then two adjacent children — the
//     exact pattern whose deadlock-freedom Theorem 2 proves; emptied
//     nodes keep a forwarding "outlink" so overtaken readers recover,
//     and retired pages go to the reclaimer's limbo (§5.3) until no
//     live operation can reference them. Background workers free
//     limbo themselves once a small batch has built up.
//
// In the sharded front-end (internal/shard), each shard owns a private
// Queue and Compressor, so compression traffic never crosses shard
// boundaries.
package compress
