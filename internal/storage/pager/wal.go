package pager

import (
	"encoding/binary"
	"hash/crc32"
	"io"

	"repro/internal/faults"
)

// Write-ahead log format. The WAL is a sequence of frames:
//
//	frame header (20 bytes):
//	  pageNo uint32   — page the payload belongs to; commitMark for commits
//	  flags  uint32   — bit 0: commit frame
//	  gen    uint64   — generation of the committing transaction
//	  crc    uint32   — CRC32C over pageNo+flags+gen and the payload
//	payload (PageSize bytes) — full on-disk page image; absent on commit
//	frames.
//
// A transaction appends one frame per dirty page followed by a commit
// frame, then fsyncs. Recovery replays frames in order, applying a
// transaction's pages only when its commit frame is reached, and stops at
// the first short or checksum-failing frame — the torn tail of the final
// unsynced transaction. Checkpoint copies the latest committed page
// images into the main file, fsyncs it, and truncates the WAL.
const (
	walHdrSize = 20
	commitMark = ^uint32(0)
	flagCommit = 1
)

// walFrame is one decoded frame header plus the payload's file offset.
type walFrame struct {
	pageNo     uint32
	flags      uint32
	gen        uint64
	payloadOff int64
}

func (f walFrame) commit() bool { return f.flags&flagCommit != 0 }

// frameCRC checksums a frame header (its pageNo, flags and gen bytes) and
// the payload.
func frameCRC(hdr, payload []byte) uint32 {
	crc := crc32.Update(0, crcTable, hdr[:16])
	return crc32.Update(crc, crcTable, payload)
}

// appendFrame writes one frame at off, assembled in frame (at least
// walHdrSize+len(payload) bytes of scratch), and returns the next offset.
func appendFrame(w io.WriterAt, frame []byte, off int64, pageNo, flags uint32, gen uint64, payload []byte) (int64, error) {
	buf := frame[:walHdrSize+len(payload)]
	binary.LittleEndian.PutUint32(buf[0:], pageNo)
	binary.LittleEndian.PutUint32(buf[4:], flags)
	binary.LittleEndian.PutUint64(buf[8:], gen)
	binary.LittleEndian.PutUint32(buf[16:], frameCRC(buf, payload))
	copy(buf[walHdrSize:], payload)
	if _, err := w.WriteAt(buf, off); err != nil {
		return off, err
	}
	return off + int64(len(buf)), nil
}

// walReplay is the reusable memory of a WAL scan: the buffer every page
// payload is read into (a payload is only checksummed, so one buffer
// serves the whole log) and the page frames of the transaction whose
// commit frame has not been reached yet.
type walReplay struct {
	hdr     [walHdrSize]byte
	page    [PageSize]byte
	pending []walEntry
}

// walEntry is one page frame: the page and its payload's WAL offset.
type walEntry struct {
	pageNo uint32
	off    int64
}

// run scans the log into index (cleared first): the latest committed
// frame offset per page. It returns the number of commit frames applied
// and the WAL size in use. fs is the injected-fault set:
// PagerTruncatedReplay stops after the first commit frame;
// PagerTornPageAccept skips checksum verification and salvages the
// trailing uncommitted frames as an implicit commit.
func (r *walReplay) run(f File, fs *faults.Set, index map[uint32]int64) (commits int, end int64, err error) {
	clear(index)
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	r.pending = r.pending[:0]
	off := int64(0)
	hdr := r.hdr[:]
	for off+walHdrSize <= size {
		if _, rerr := f.ReadAt(hdr, off); rerr != nil {
			break // torn header
		}
		fr := walFrame{
			pageNo: binary.LittleEndian.Uint32(hdr[0:]),
			flags:  binary.LittleEndian.Uint32(hdr[4:]),
			gen:    binary.LittleEndian.Uint64(hdr[8:]),
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[16:])
		var payload []byte
		next := off + walHdrSize
		if !fr.commit() {
			if next+PageSize > size {
				break // torn payload
			}
			payload = r.page[:]
			if _, rerr := f.ReadAt(payload, next); rerr != nil {
				break
			}
			fr.payloadOff = next
			next += PageSize
		}
		if frameCRC(hdr, payload) != wantCRC {
			// pager.torn-page-accept: trust the torn frame anyway. A
			// commit frame with a bad checksum is accepted as a commit; a
			// page frame joins the pending set to be salvaged below.
			if !fs.Has(faults.PagerTornPageAccept) {
				break // torn or corrupted tail: stop, discard the rest
			}
		}
		if fr.commit() {
			r.apply(index)
			commits++
			end = next
			if fs.Has(faults.PagerTruncatedReplay) && commits == 1 {
				return commits, end, nil
			}
		} else {
			r.pending = append(r.pending, walEntry{pageNo: fr.pageNo, off: fr.payloadOff})
		}
		off = next
	}
	// Frames after the last commit belong to an uncommitted transaction:
	// discard them — unless the torn-page-accept fault salvages them as
	// an implicit commit.
	if fs.Has(faults.PagerTornPageAccept) && len(r.pending) > 0 {
		r.apply(index)
		commits++
		end = off
	}
	return commits, end, nil
}

// apply commits the pending frames into index in log order, so a page
// written twice in one transaction ends at its later frame.
func (r *walReplay) apply(index map[uint32]int64) {
	for _, e := range r.pending {
		index[e.pageNo] = e.off
	}
	r.pending = r.pending[:0]
}
