// Package client is the Go client for a blinktree network server
// (internal/server, cmd/blinkserver). It speaks the length-prefixed
// binary protocol specified in docs/protocol.md and mirrors the
// blinktree.Tree operation surface over the wire: point operations, the atomic
// conditional writes, bounded scan pages, shard-parallel batches,
// Len, Stats and Checkpoint.
//
// The client is built for pipelining. A Client holds a small pool of
// connections (Options.Conns); each connection multiplexes any number
// of concurrent calls onto one wire stream — a writer goroutine
// gathers whatever calls are queued and writes them as one burst, a
// reader goroutine matches responses to calls by request id. So N
// goroutines calling Search/Upsert concurrently cost far fewer
// syscalls than N round trips, and the server executes the burst as
// a single shard-parallel batch (one WAL group commit per touched
// shard on a durable server). Neither side waits on a timer: the
// writer takes whatever callers queued while the previous burst was
// on the wire, and the server whatever frames arrived while the
// previous poll executed, so bursts grow with load and a lone caller
// pays nothing extra. Throughput therefore scales with pipeline
// depth; see experiment E13.
//
// Semantics across the wire:
//
//   - Sentinel errors survive: a missing key is blinktree.ErrNotFound
//     via errors.Is, a duplicate insert blinktree.ErrDuplicate.
//   - Every call takes a context; cancellation abandons the call
//     (the response, if it arrives, is discarded) without disturbing
//     other calls on the connection. A call whose context is already
//     done is not sent at all.
//   - Idempotent reads (Search, Scan, Len, Stats, Ping) are retried
//     once on a fresh connection after a network failure
//     (Options.RetryReads). Mutations are never retried: a lost
//     response does not prove a lost write, and the conditional
//     surface (CompareAndSwap / GetOrInsert) is the right tool for
//     at-most-once semantics over an unreliable link.
//   - Requests pipelined concurrently may execute in any relative
//     order. A caller that needs op B to observe op A must wait for
//     A's response before issuing B (per-call ordering is preserved
//     by waiting, exactly like a local call).
//   - With Options.ReplicaAddr set, idempotent reads are served by a
//     read replica (falling back to the primary on transport
//     failure) while mutations always go to the primary. Replication
//     is asynchronous, so replica reads may lag acknowledged writes.
//     Promote turns a follower writable after its primary dies.
package client
