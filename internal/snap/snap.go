// Package snap is the snapshot stream codec shared by the public
// Snapshot/Restore API and the WAL checkpoint writer. Keeping one
// codec means a checkpoint IS a snapshot: portable across shard
// counts, and verifiable with the same CRC.
//
// Stream format (little endian):
//
//	magic "BLTS" | version u32 | count u64 | count′ × (key u64, value u64) | footer
//
// Version 1 has no footer and treats the header count as advisory
// (readers consume pairs until EOF). Version 2 appends a 12-byte
// footer — pairs-written u64 | crc32(IEEE) u32 over every preceding
// byte — so checkpoints and standalone snapshots detect truncation and
// corruption instead of silently restoring a partial state. Writers
// emit v2; readers accept both.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"blinktree/internal/base"
)

var magic = [4]byte{'B', 'L', 'T', 'S'}

// Versions. Version is what Write emits; VersionLegacy is still read.
const (
	VersionLegacy = 1
	Version       = 2
)

const (
	headerLen = 16
	pairLen   = 16
	footerLen = 12
)

// Write streams pairs from scan to w in version-2 format. count is the
// advisory pair count for the header (it may drift under concurrent
// mutation); the footer records the exact number written.
func Write(w io.Writer, count int, scan func(fn func(base.Key, base.Value) bool) error) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var hdr [headerLen]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(count))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var pair [pairLen]byte
	written := uint64(0)
	var werr error
	err := scan(func(k base.Key, v base.Value) bool {
		binary.LittleEndian.PutUint64(pair[0:], uint64(k))
		binary.LittleEndian.PutUint64(pair[8:], uint64(v))
		if _, werr = bw.Write(pair[:]); werr != nil {
			return false
		}
		written++
		return true
	})
	if err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	// The footer's CRC covers everything before it, so flush the pair
	// stream through the hasher first.
	if err := bw.Flush(); err != nil {
		return err
	}
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:8], written)
	binary.LittleEndian.PutUint32(foot[8:12], crc.Sum32())
	if _, err := w.Write(foot[:]); err != nil {
		return err
	}
	return nil
}

// Read parses a snapshot stream (either version), calling emit for
// each pair in stream order. For version 2 it verifies the pair count
// and CRC and returns a base.ErrCorrupt-wrapped error on mismatch.
func Read(r io.Reader, emit func(base.Key, base.Value) error) error {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	var head [headerLen]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return fmt.Errorf("snapshot header: %w", err)
	}
	if [4]byte(head[0:4]) != magic {
		return fmt.Errorf("%w: bad snapshot magic", base.ErrCorrupt)
	}
	ver := binary.LittleEndian.Uint32(head[4:8])
	switch ver {
	case VersionLegacy:
		return readV1(br, emit)
	case Version:
		crc.Write(head[:])
		return readV2(br, crc, emit)
	default:
		return fmt.Errorf("%w: snapshot version %d", base.ErrCorrupt, ver)
	}
}

// readV1 consumes 16-byte pairs until clean EOF (the legacy format has
// no integrity check beyond alignment).
func readV1(br *bufio.Reader, emit func(base.Key, base.Value) error) error {
	var pair [pairLen]byte
	for {
		if _, err := io.ReadFull(br, pair[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("snapshot body: %w", err)
		}
		k := base.Key(binary.LittleEndian.Uint64(pair[0:]))
		v := base.Value(binary.LittleEndian.Uint64(pair[8:]))
		if err := emit(k, v); err != nil {
			return err
		}
	}
}

// readV2 consumes pairs, distinguishing the 12-byte footer from the
// 16-byte pairs by lookahead: when fewer than 16 bytes remain, what
// remains must be exactly the footer, and its count and CRC must
// match what was read.
func readV2(br *bufio.Reader, crc crc32er, emit func(base.Key, base.Value) error) error {
	pairs := uint64(0)
	for {
		buf, err := br.Peek(pairLen)
		if err == nil {
			crc.Write(buf)
			k := base.Key(binary.LittleEndian.Uint64(buf[0:]))
			v := base.Value(binary.LittleEndian.Uint64(buf[8:]))
			if _, err := br.Discard(pairLen); err != nil {
				return err
			}
			if err := emit(k, v); err != nil {
				return err
			}
			pairs++
			continue
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF && err != bufio.ErrBufferFull {
			return fmt.Errorf("snapshot body: %w", err)
		}
		if len(buf) != footerLen {
			return fmt.Errorf("%w: snapshot truncated (%d trailing bytes)", base.ErrCorrupt, len(buf))
		}
		wantPairs := binary.LittleEndian.Uint64(buf[0:8])
		wantCRC := binary.LittleEndian.Uint32(buf[8:12])
		if wantPairs != pairs {
			return fmt.Errorf("%w: snapshot pair count %d, footer says %d", base.ErrCorrupt, pairs, wantPairs)
		}
		if crc.Sum32() != wantCRC {
			return fmt.Errorf("%w: snapshot CRC mismatch", base.ErrCorrupt)
		}
		if _, err := br.Discard(footerLen); err != nil {
			return err
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return fmt.Errorf("%w: trailing bytes after snapshot footer", base.ErrCorrupt)
		}
		return nil
	}
}

// crc32er is the subset of hash.Hash32 readV2 needs.
type crc32er interface {
	Write(p []byte) (int, error)
	Sum32() uint32
}
