package pager

// lruCache is the page cache: page number → full on-disk page bytes, with
// LRU eviction and dirty-page tracking. Dirty pages (staged during a
// commit, not yet in the WAL) are pinned — eviction skips them, so a
// commit can always re-read its own staged writes; Commit marks them
// clean once their frames are durably in the WAL.
//
// The cache owns its page bytes: insert hands out the buffer of an entry,
// the pager fills or overwrites it in place, and nothing outside the
// pager keeps it. Evicted and reset entries keep their buffers on a spare
// list for the next insert, so a warm cache allocates nothing.
type lruCache struct {
	cap   int
	pages map[uint32]*cachedPage
	head  *cachedPage // most recently used
	tail  *cachedPage // least recently used
	spare []*cachedPage

	hits, misses, evictions int
}

type cachedPage struct {
	no         uint32
	data       []byte // PageSize bytes
	dirty      bool
	prev, next *cachedPage
}

func newLRU(capacity int) *lruCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &lruCache{cap: capacity, pages: make(map[uint32]*cachedPage, capacity)}
}

// get returns the cached page bytes and bumps recency.
func (c *lruCache) get(no uint32) ([]byte, bool) {
	p, ok := c.pages[no]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.moveToFront(p)
	return p.data, true
}

// insert adds page no, which must not be cached, as the most recently
// used entry and returns its PageSize buffer for the caller to fill. The
// buffer's old content is arbitrary. A full cache first evicts its least
// recently used clean page, so the entry handed out is never the one
// evicted; with every page dirty the cache exceeds capacity until commit
// cleans them.
func (c *lruCache) insert(no uint32, dirty bool) []byte {
	for len(c.pages) >= c.cap && c.evictOne() {
	}
	var p *cachedPage
	if n := len(c.spare); n > 0 {
		p = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	} else {
		p = &cachedPage{data: make([]byte, PageSize)}
	}
	p.no, p.dirty = no, dirty
	c.pages[no] = p
	c.pushFront(p)
	return p.data
}

// drop removes page no, keeping its buffer spare (a read into a freshly
// inserted buffer that failed).
func (c *lruCache) drop(no uint32) {
	if p, ok := c.pages[no]; ok {
		c.unlink(p)
		delete(c.pages, no)
		c.spare = append(c.spare, p)
	}
}

// setDirty pins (or, once the page's frame is in the WAL, unpins) a
// cached page.
func (c *lruCache) setDirty(no uint32, dirty bool) {
	if p, ok := c.pages[no]; ok {
		p.dirty = dirty
	}
}

// evictOne drops the least recently used clean page.
func (c *lruCache) evictOne() bool {
	for p := c.tail; p != nil; p = p.prev {
		if p.dirty {
			continue
		}
		c.unlink(p)
		delete(c.pages, p.no)
		c.spare = append(c.spare, p)
		c.evictions++
		return true
	}
	return false
}

// reset empties the cache (pager Reset / recovery), keeping every
// entry's buffer spare.
func (c *lruCache) reset() {
	for p := c.head; p != nil; p = p.next {
		c.spare = append(c.spare, p)
	}
	clear(c.pages)
	c.head, c.tail = nil, nil
}

func (c *lruCache) len() int { return len(c.pages) }

func (c *lruCache) pushFront(p *cachedPage) {
	p.prev = nil
	p.next = c.head
	if c.head != nil {
		c.head.prev = p
	}
	c.head = p
	if c.tail == nil {
		c.tail = p
	}
}

func (c *lruCache) unlink(p *cachedPage) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		c.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		c.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (c *lruCache) moveToFront(p *cachedPage) {
	if c.head == p {
		return
	}
	c.unlink(p)
	c.pushFront(p)
}
