package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"blinktree/internal/wal"
)

// layoutFile records a durability directory's topology so a mismatched
// reopen fails loudly instead of silently hiding acknowledged data: an
// n-shard index logs into Dir/shard<i> with a stride of 2^64/n —
// recover with the wrong shape and fsync-acknowledged keys stop routing
// to the engine that holds them.
const layoutFile = "LAYOUT"

// ensureLayout validates (or, on first use, records) that dir holds a
// durable index of exactly `shards` partitions. It refuses a dir with
// log segments or checkpoints at its root: earlier single-tree
// versions logged there, and opening such a dir as shard0 would
// recover an empty index.
func ensureLayout(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("blinktree: durability dir: %w", err)
	}
	old, err := wal.HasLog(dir)
	if err != nil {
		return fmt.Errorf("blinktree: durability dir: %w", err)
	}
	if old {
		return fmt.Errorf("blinktree: durability dir %s holds a write-ahead log at its root, the single-tree layout of earlier versions; "+
			"move its wal-*.seg, checkpoint-*.snap and root-*.hash files into %s and reopen with one shard",
			dir, filepath.Join(dir, "shard0"))
	}
	path := filepath.Join(dir, layoutFile)
	data, err := os.ReadFile(path)
	if err == nil {
		var got int
		if _, serr := fmt.Sscanf(strings.TrimSpace(string(data)), "blinktree durable layout: shards=%d", &got); serr != nil {
			return fmt.Errorf("blinktree: %s is not a layout file: %q", path, strings.TrimSpace(string(data)))
		}
		if got != shards {
			return fmt.Errorf("blinktree: durability dir %s was written with shards=%d; reopen with the same shard count (asked for shards=%d)",
				dir, got, shards)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return wal.WriteFileDurable(path, []byte(fmt.Sprintf("blinktree durable layout: shards=%d\n", shards)))
}
