package pager

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/xerr"
)

// Page format. Every page is PageSize bytes on disk: a 8-byte header
// (CRC32 over page number + payload, plus reserved bytes) followed by the
// payload. Page 0 is the meta page; pages 1..pageCount hold consecutive
// chunks of the committed database image.
const (
	// PageSize is the fixed on-disk page size.
	PageSize = 4096
	// pageHdrSize is the per-page header: crc32 (4) + reserved (4).
	pageHdrSize = 8
	// PagePayload is the usable bytes per page.
	PagePayload = PageSize - pageHdrSize
)

// Meta-page (page 0) payload layout.
const (
	metaMagic   = 0x50475231 // "PGR1"
	metaVersion = 1
	// meta payload: magic u32, version u32, pageCount u32, imageLen u64,
	// generation u64.
	metaSize = 4 + 4 + 4 + 8 + 8
)

// meta is the decoded page-0 payload.
type meta struct {
	pageCount uint32
	imageLen  uint64
	gen       uint64
}

func encodeMeta(m meta) (p [metaSize]byte) {
	binary.LittleEndian.PutUint32(p[0:], metaMagic)
	binary.LittleEndian.PutUint32(p[4:], metaVersion)
	binary.LittleEndian.PutUint32(p[8:], m.pageCount)
	binary.LittleEndian.PutUint64(p[12:], m.imageLen)
	binary.LittleEndian.PutUint64(p[20:], m.gen)
	return p
}

func decodeMeta(p []byte) (meta, error) {
	if len(p) < metaSize {
		return meta{}, xerr.New(xerr.CodeCorrupt, "pager: meta page too short")
	}
	if binary.LittleEndian.Uint32(p[0:]) != metaMagic {
		return meta{}, xerr.New(xerr.CodeCorrupt, "pager: bad magic in meta page")
	}
	if v := binary.LittleEndian.Uint32(p[4:]); v != metaVersion {
		return meta{}, xerr.New(xerr.CodeCorrupt, "pager: unsupported format version %d", v)
	}
	return meta{
		pageCount: binary.LittleEndian.Uint32(p[8:]),
		imageLen:  binary.LittleEndian.Uint64(p[12:]),
		gen:       binary.LittleEndian.Uint64(p[20:]),
	}, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageCRC checksums a page: page number mixed with the payload, so a page
// written to the wrong offset fails verification too.
func pageCRC(pageNo uint32, payload []byte) uint32 {
	// The little-endian page number goes through the table byte by byte:
	// a 4-byte array handed to crc32.Update would escape to the heap.
	crc := ^uint32(0)
	for i := 0; i < 4; i++ {
		crc = crcTable[byte(crc)^byte(pageNo>>(8*i))] ^ crc>>8
	}
	return crc32.Update(^crc, crcTable, payload)
}

// encodePage assembles one on-disk page from a payload (≤ PagePayload
// bytes) into dst (PageSize bytes) and returns it. Every byte of dst is
// written: the reserved header bytes and the padding after a short
// payload are zeroed, so a reused buffer encodes exactly as a fresh one.
func encodePage(dst []byte, pageNo uint32, payload []byte) []byte {
	pg := dst[:PageSize]
	n := copy(pg[pageHdrSize:], payload)
	clear(pg[pageHdrSize+n:])
	clear(pg[4:pageHdrSize])
	binary.LittleEndian.PutUint32(pg[0:], pageCRC(pageNo, pg[pageHdrSize:]))
	return pg
}

// verifyPage checks a page's checksum and returns its payload.
func verifyPage(pageNo uint32, pg []byte) ([]byte, error) {
	if len(pg) != PageSize {
		return nil, xerr.New(xerr.CodeCorrupt, "pager: page %d is %d bytes, want %d", pageNo, len(pg), PageSize)
	}
	want := binary.LittleEndian.Uint32(pg[0:])
	if got := pageCRC(pageNo, pg[pageHdrSize:]); got != want {
		return nil, xerr.New(xerr.CodeCorrupt, "pager: page %d checksum mismatch", pageNo)
	}
	return pg[pageHdrSize:], nil
}

// pageCount is the number of image pages (the meta page excluded) an
// image of n bytes takes.
func pageCount(n int) int { return (n + PagePayload - 1) / PagePayload }

// paginate chunks a database image into page payloads, appended to
// pages[:0]; index 0 is the encoded meta page. The payloads alias meta
// and image.
func paginate(pages [][]byte, metaPage, image []byte) [][]byte {
	n := pageCount(len(image))
	pages = append(pages[:0], metaPage)
	for i := 0; i < n; i++ {
		lo := i * PagePayload
		hi := lo + PagePayload
		if hi > len(image) {
			hi = len(image)
		}
		pages = append(pages, image[lo:hi])
	}
	return pages
}
