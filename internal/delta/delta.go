// Package delta is a diff library with no serving path: Diff computes a
// patch that turns a base byte string into a target as COPY spans of the
// base and INSERTed literals, and Apply reconstructs the target from the
// base and the patch. No server or client in this repository sends a
// patch; the benchmark times both calls, and incremental extraction of
// dynamic pages can build on the COPY/INSERT ops.
//
// The format ("CCD1") is deliberately small and strict:
//
//	magic   4 bytes  "CCD1"
//	baseLen uvarint  length of the base the patch applies to
//	tgtLen  uvarint  length of the reconstructed target
//	baseSum 4 bytes  crc32(IEEE) of the base, big-endian
//	tgtSum  4 bytes  crc32(IEEE) of the target, big-endian
//	ops     ...      opcode stream until end of patch
//
// Opcodes:
//
//	0x00 COPY   uvarint offset, uvarint length  — copy from base
//	0x01 INSERT uvarint length, <length> bytes  — literal insert
//
// Apply validates everything it can: magic, base length and checksum,
// opcode bounds, and finally the exact target length and checksum. A
// truncated or corrupted patch is rejected with an error rather than
// producing garbage.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	magic = "CCD1"

	opCopy   = 0x00
	opInsert = 0x01

	// blockSize is the granularity of base-block matching in Diff.
	// Smaller blocks find more matches but emit more opcodes.
	blockSize = 32

	// minCopy is the shortest match worth encoding as a COPY; a COPY
	// costs ~1+2×uvarint bytes, so tiny matches are cheaper as literals.
	minCopy = 12
)

var (
	// ErrCorrupt is wrapped by every Apply failure.
	ErrCorrupt = errors.New("delta: corrupt patch")
)

// Diff computes a CCD1 patch transforming base into target. It always
// succeeds; when the inputs share nothing the patch degenerates to one
// INSERT of the whole target (slightly larger than the target itself —
// callers should compare sizes before choosing to send a patch).
func Diff(base, target []byte) []byte {
	var out []byte
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(len(base)))
	out = binary.AppendUvarint(out, uint64(len(target)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(base))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(target))

	// Index aligned base blocks by content hash. Last writer wins,
	// which biases matches toward later occurrences; correctness does
	// not depend on which occurrence we pick.
	type blockRef struct{ off int }
	index := make(map[uint32]blockRef, len(base)/blockSize+1)
	for off := 0; off+blockSize <= len(base); off += blockSize {
		index[crc32.ChecksumIEEE(base[off:off+blockSize])] = blockRef{off}
	}

	var lit []byte // pending literal run
	flushLit := func() {
		if len(lit) == 0 {
			return
		}
		out = append(out, opInsert)
		out = binary.AppendUvarint(out, uint64(len(lit)))
		out = append(out, lit...)
		lit = lit[:0]
	}

	i := 0
	for i < len(target) {
		if i+blockSize <= len(target) {
			if ref, ok := index[crc32.ChecksumIEEE(target[i:i+blockSize])]; ok &&
				string(base[ref.off:ref.off+blockSize]) == string(target[i:i+blockSize]) {
				// Extend the match backward into the pending literal...
				start, boff := i, ref.off
				for len(lit) > 0 && boff > 0 && lit[len(lit)-1] == base[boff-1] {
					lit = lit[:len(lit)-1]
					start--
					boff--
				}
				// ...and forward past the block.
				end, bend := i+blockSize, ref.off+blockSize
				for end < len(target) && bend < len(base) && target[end] == base[bend] {
					end++
					bend++
				}
				if end-start >= minCopy {
					flushLit()
					out = append(out, opCopy)
					out = binary.AppendUvarint(out, uint64(boff))
					out = binary.AppendUvarint(out, uint64(end-start))
					i = end
					continue
				}
				// Too short to pay for a COPY: restore the literal run.
				lit = append(lit, target[start:i]...)
			}
		}
		lit = append(lit, target[i])
		i++
	}
	flushLit()
	return out
}

// Apply reconstructs the target from base and a CCD1 patch. Any
// structural damage — wrong magic, wrong base, truncated opcode
// stream, out-of-bounds copy, or a reconstruction whose length or
// checksum disagrees with the header — returns an error wrapping
// ErrCorrupt.
func Apply(base, patch []byte) ([]byte, error) {
	fail := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(patch) < len(magic) || string(patch[:len(magic)]) != magic {
		return fail("bad magic")
	}
	p := patch[len(magic):]

	baseLen, n := binary.Uvarint(p)
	if n <= 0 {
		return fail("bad base length")
	}
	p = p[n:]
	tgtLen, n := binary.Uvarint(p)
	if n <= 0 {
		return fail("bad target length")
	}
	p = p[n:]
	if len(p) < 8 {
		return fail("truncated checksums")
	}
	baseSum := binary.BigEndian.Uint32(p[:4])
	tgtSum := binary.BigEndian.Uint32(p[4:8])
	p = p[8:]

	if uint64(len(base)) != baseLen {
		return fail("base length mismatch: have %d want %d", len(base), baseLen)
	}
	if crc32.ChecksumIEEE(base) != baseSum {
		return fail("base checksum mismatch")
	}
	// COPY ops may repeat base content, so tgtLen can legitimately
	// exceed len(base)+len(patch); only cap the allocation hint so a
	// hostile header cannot force a huge upfront allocation. The per-op
	// overrun check below bounds actual growth.
	capHint := tgtLen
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]byte, 0, capHint)
	for len(p) > 0 {
		op := p[0]
		p = p[1:]
		switch op {
		case opCopy:
			off, n := binary.Uvarint(p)
			if n <= 0 {
				return fail("truncated copy offset")
			}
			p = p[n:]
			length, n := binary.Uvarint(p)
			if n <= 0 {
				return fail("truncated copy length")
			}
			p = p[n:]
			end := off + length
			if end < off || end > uint64(len(base)) {
				return fail("copy out of bounds: [%d,%d) of %d", off, end, len(base))
			}
			out = append(out, base[off:end]...)
		case opInsert:
			length, n := binary.Uvarint(p)
			if n <= 0 {
				return fail("truncated insert length")
			}
			p = p[n:]
			if uint64(len(p)) < length {
				return fail("truncated insert literal: have %d want %d", len(p), length)
			}
			out = append(out, p[:length]...)
			p = p[length:]
		default:
			return fail("unknown opcode %#x", op)
		}
		if uint64(len(out)) > tgtLen {
			return fail("reconstruction overruns target length")
		}
	}
	if uint64(len(out)) != tgtLen {
		return fail("reconstructed length %d, want %d", len(out), tgtLen)
	}
	if crc32.ChecksumIEEE(out) != tgtSum {
		return fail("target checksum mismatch")
	}
	return out, nil
}
