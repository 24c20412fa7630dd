package shard

import (
	"sync"

	"blinktree/internal/base"
	"blinktree/internal/wal"
)

// Engine operation surface. The Router routes every logical operation
// through these methods rather than the inner tree, and each operation
// is written once, in exec, for both regimes:
//
//   - lock takes k's stripe only on a durable engine, so racing
//     mutations of the same key append in apply order and replay
//     converges to the live state.
//   - logged marks k's verify bucket and, only on a durable engine,
//     appends the record; the operation then returns only after its
//     group commit fsyncs. Failed operations (duplicate insert,
//     missing delete, CAS mismatch) log nothing.
//
// Every logical mutation is normalized to its resolved outcome before
// logging: Update logs the computed value, not the closure; CAS logs
// the new value only when it swapped. exec returns the commit Ticket
// instead of waiting, which lets ApplyBatch append a whole shard group
// and block once for its last ticket (group commits complete in order,
// so the last ticket covers the rest).

// lock takes k's stripe when the engine is durable and returns it for
// unlock; a volatile engine takes nothing.
func (e *Engine) lock(k base.Key) *sync.Mutex {
	if e.wal == nil {
		return nil
	}
	s := e.stripe(k)
	s.Lock()
	return s
}

func unlock(s *sync.Mutex) {
	if s != nil {
		s.Unlock()
	}
}

// logged records a mutation that took effect: it dirties the key's
// verify bucket and, on a durable engine, appends rec to the log.
func (e *Engine) logged(rec wal.Record) wal.Ticket {
	e.markVerify(rec.Key)
	if e.wal == nil {
		return wal.Ticket{}
	}
	return e.wal.Append(rec)
}

func put(k base.Key, v base.Value) wal.Record {
	return wal.Record{Kind: wal.KindPut, Key: k, Value: v}
}

func del(k base.Key) wal.Record { return wal.Record{Kind: wal.KindDel, Key: k} }

// exec applies op and returns its result with the commit ticket of its
// log record (the zero Ticket when nothing was logged).
func (e *Engine) exec(op Op) (res Result, t wal.Ticket) {
	k := op.Key
	if op.Kind == OpSearch {
		res.Value, res.Err = e.Tree.Search(k)
		return res, t
	}
	s := e.lock(k)
	switch op.Kind {
	case OpInsert:
		if res.Err = e.Tree.Insert(k, op.Value); res.Err == nil {
			t = e.logged(put(k, op.Value))
		}
	case OpDelete:
		if res.Err = e.Tree.Delete(k); res.Err == nil {
			t = e.logged(del(k))
		}
	case OpUpsert:
		if res.Value, res.OK, res.Err = e.Tree.Upsert(k, op.Value); res.Err == nil {
			t = e.logged(put(k, op.Value))
		}
	case OpGetOrInsert:
		// Only the inserting outcome mutates, so only it logs.
		if res.Value, res.OK, res.Err = e.Tree.GetOrInsert(k, op.Value); res.Err == nil && !res.OK {
			t = e.logged(put(k, res.Value))
		}
	case OpCompareAndSwap:
		if res.OK, res.Err = e.Tree.CompareAndSwap(k, op.Old, op.Value); res.Err == nil && res.OK {
			t = e.logged(put(k, op.Value))
		}
	case OpCompareAndDelete:
		if res.OK, res.Err = e.Tree.CompareAndDelete(k, op.Old); res.Err == nil && res.OK {
			t = e.logged(del(k))
		}
	}
	unlock(s)
	return res, t
}

// do applies op and waits for its group commit.
func (e *Engine) do(op Op) Result {
	res, t := e.exec(op)
	if res.Err == nil {
		res.Err = t.Wait()
	}
	return res
}

// Insert stores v under k; base.ErrDuplicate if k is present.
func (e *Engine) Insert(k base.Key, v base.Value) error {
	return e.do(Op{Kind: OpInsert, Key: k, Value: v}).Err
}

// Delete removes k, or returns base.ErrNotFound.
func (e *Engine) Delete(k base.Key) error {
	return e.do(Op{Kind: OpDelete, Key: k}).Err
}

// Upsert stores v under k unconditionally, returning the previous
// value and whether one existed.
func (e *Engine) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	r := e.do(Op{Kind: OpUpsert, Key: k, Value: v})
	return r.Value, r.OK, r.Err
}

// GetOrInsert returns the value under k, inserting v first when k is
// absent; loaded reports whether it was already present.
func (e *Engine) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	r := e.do(Op{Kind: OpGetOrInsert, Key: k, Value: v})
	return r.Value, r.OK, r.Err
}

// CompareAndSwap replaces k's value with new only when it equals old.
func (e *Engine) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	r := e.do(Op{Kind: OpCompareAndSwap, Key: k, Old: old, Value: new})
	return r.OK, r.Err
}

// CompareAndDelete removes k only when its value equals old.
func (e *Engine) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	r := e.do(Op{Kind: OpCompareAndDelete, Key: k, Old: old})
	return r.OK, r.Err
}

// Update atomically replaces the value under k with fn(current) and
// returns the new value, or base.ErrNotFound. It is not an Op (it
// carries a function), but it takes the same lock and logged steps;
// the log records the resolved value, never the closure.
func (e *Engine) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	s := e.lock(k)
	v, err := e.Tree.Update(k, fn)
	var t wal.Ticket
	if err == nil {
		t = e.logged(put(k, v))
	}
	unlock(s)
	if err != nil {
		return v, err
	}
	return v, t.Wait()
}

// BulkLoad builds the empty engine bottom-up from a strictly ascending
// pair stream. On a durable engine it is followed by an immediate
// checkpoint, which is how the loaded state becomes durable — bulk
// loading bypasses the per-operation log by design.
func (e *Engine) BulkLoad(pairs func() (base.Key, base.Value, bool), fill float64) error {
	if err := e.Tree.BulkLoad(pairs, fill); err != nil {
		return err
	}
	// Bulk loading bypasses the per-key mutation paths, so the overlay
	// cannot track which buckets changed — all of them did.
	if e.overlay != nil {
		e.overlay.MarkAll()
	}
	return e.Checkpoint()
}
