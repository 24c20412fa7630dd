package blinktree

import (
	"fmt"
	"io"

	"blinktree/internal/snap"
)

// Snapshot stream format (little endian):
//
//	magic "BLTS" | version u32 | count u64 | count′ × (key u64, value u64) | footer
//
// The codec lives in internal/snap and is shared with the WAL
// checkpoint writer, so a checkpoint IS a snapshot. Version 2 (current)
// ends with a pairs-written u64 + CRC-32 footer so corruption and
// truncation are detected on restore; version 1 streams (no footer)
// are still read. The format does not record the shard count: a snapshot
// taken with N shards restores into a tree of M, which is the
// supported path for re-partitioning.

// Snapshot writes a point-in-time copy of the logical data (all
// key/value pairs in global ascending key order) to w, ending with a
// CRC footer that Restore verifies. Run it quiesced for an exact
// snapshot; under concurrent mutation it degrades to the scan
// semantics of Range.
func (t *Tree) Snapshot(w io.Writer) error {
	err := snap.Write(w, t.Len(), func(fn func(Key, Value) bool) error {
		return t.Range(0, Key(^uint64(0)), fn)
	})
	if err != nil {
		return fmt.Errorf("blinktree: %w", err)
	}
	return nil
}

// Restore loads a snapshot produced by Snapshot into the tree, routing
// each pair to its shard and verifying the integrity footer (legacy
// footerless streams are accepted). The tree must be freshly opened
// with exclusive access (existing keys colliding with snapshot keys
// cause ErrDuplicate). On a durable tree the load follows the BulkLoad
// pattern — pairs load without per-operation logging, then a single
// checkpoint makes the whole load durable — instead of paying one group
// commit per pair.
func (t *Tree) Restore(r io.Reader) error {
	if err := snap.Read(r, t.r.InsertDirect); err != nil {
		return fmt.Errorf("blinktree: %w", err)
	}
	if err := t.r.Checkpoint(); err != nil {
		return fmt.Errorf("blinktree: %w", err)
	}
	return nil
}
