package serve

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"wormmesh/internal/metrics"
)

// Cache tiers, as reported by GetTagged and tagged onto spans,
// X-Cache headers and the lookup-latency histogram labels.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
)

// Cache is the two-tier result cache: an in-memory LRU of response
// bodies (with their decoded entries, once some caller needed one),
// over an optional disk Store. The warm-hit path — GetTagged on a
// memory-resident key — is a map lookup plus a list splice and
// allocates nothing; a disk hit reads and verifies the stored bytes
// without decoding them. Either way the stored body is served
// verbatim, which is what keeps repeated parameter studies at lookup
// cost. Disk hits are promoted into memory; evicted entries survive on
// disk.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // front = most recent
	items map[string]*list.Element // key -> element holding *cacheItem

	store *Store // nil = memory-only

	hits, misses, diskHits atomic.Int64
	met                    *metrics.Server // nil ok
}

type cacheItem struct {
	key   string
	entry *Entry // nil until a caller that consumes entries decodes body
	body  []byte // marshaled entry, served verbatim on hits
}

// NewCache builds a cache holding up to max entries in memory (4096
// when max <= 0) over store (nil for memory-only). met, when non-nil,
// receives hit/miss counters.
func NewCache(max int, store *Store, met *metrics.Server) *Cache {
	if max <= 0 {
		max = 4096
	}
	return &Cache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		store: store,
		met:   met,
	}
}

// OpenDiskCache is the CLI convenience constructor: a disk store at dir
// under a memory LRU of mem entries, with no metrics.
func OpenDiskCache(dir string, mem int) (*Cache, error) {
	store, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return NewCache(mem, store, nil), nil
}

// GetTagged is the warm-hit lookup: the marshaled entry for key, and
// which tier answered ("memory" or "disk", "" on a miss), for handlers
// that serve the body verbatim and tag spans and response headers with
// the tier. Nothing is decoded: a memory hit returns the resident
// bytes, a disk hit the stored bytes once Store.GetBody verified them,
// promoted undecoded. Lookup timing is taken only when metrics are
// attached — a metric-less cache (CLIs, benchmarks) keeps the memory
// path at a map lookup plus a list splice, no clock reads, zero
// allocations.
func (c *Cache) GetTagged(key string) ([]byte, string, bool) {
	var start time.Time
	if c.met != nil {
		start = time.Now()
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		body := el.Value.(*cacheItem).body
		c.mu.Unlock()
		c.hit(TierMemory, start)
		return body, TierMemory, true
	}
	c.mu.Unlock()

	if c.store != nil {
		if body, err := c.store.GetBody(key); err == nil && body != nil {
			c.insert(key, nil, body)
			c.hit(TierDisk, start)
			return body, TierDisk, true
		}
	}
	c.miss()
	return nil, "", false
}

// Get is the lookup for callers that consume the entry (sweep cells,
// job status, offline sweeps): the decoded entry for key and the tier
// that answered. A resident body that was promoted undecoded is
// decoded once and kept; a body that does not decode is a miss.
func (c *Cache) Get(key string) (*Entry, string, bool) {
	var start time.Time
	if c.met != nil {
		start = time.Now()
	}
	if e := c.peek(key); e != nil {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
		}
		c.mu.Unlock()
		c.hit(TierMemory, start)
		return e, TierMemory, true
	}
	if c.store != nil {
		if e, body, err := c.store.Get(key); err == nil && e != nil {
			c.insert(key, e, body)
			c.hit(TierDisk, start)
			return e, TierDisk, true
		}
	}
	c.miss()
	return nil, "", false
}

// hit counts a hit on tier and observes its lookup latency.
func (c *Cache) hit(tier string, start time.Time) {
	c.hits.Add(1)
	if tier == TierDisk {
		c.diskHits.Add(1)
	}
	if c.met == nil {
		return
	}
	c.met.CacheHits.Inc()
	if tier == TierDisk {
		c.met.DiskHits.Inc()
		c.met.LookupDiskSeconds.Observe(time.Since(start).Seconds())
	} else {
		c.met.LookupMemSeconds.Observe(time.Since(start).Seconds())
	}
}

func (c *Cache) miss() {
	c.misses.Add(1)
	if c.met != nil {
		c.met.CacheMisses.Inc()
	}
}

// Has reports presence (memory or disk) without touching the hit/miss
// counters or the LRU order — for status polls that must not pollute
// cache statistics.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	_, ok := c.items[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	return c.store != nil && c.store.Has(key)
}

// peek returns the memory-resident entry for key without touching the
// counters or the LRU order, decoding (once) a body promoted
// undecoded; nil when key is not resident or its body does not
// decode.
func (c *Cache) peek(key string) *Entry {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	it := el.Value.(*cacheItem)
	e, body := it.entry, it.body
	c.mu.Unlock()
	if e != nil {
		return e
	}
	e, ok = decodeEntry(body, key)
	if !ok {
		return nil
	}
	c.mu.Lock()
	if it.entry == nil {
		it.entry = e
	}
	c.mu.Unlock()
	return e
}

// Put files an entry under its key in both tiers and returns the
// marshaled body it will serve on future hits.
func (c *Cache) Put(e *Entry) ([]byte, error) {
	body, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	c.insert(e.Key, e, body)
	if c.store != nil {
		if err := c.store.Put(e.Key, body); err != nil {
			return body, err
		}
	}
	return body, nil
}

func (c *Cache) insert(key string, e *Entry, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		it := el.Value.(*cacheItem)
		it.entry, it.body = e, body
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, entry: e, body: body})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
	}
}

// Len returns the number of memory-resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative lookup counters: hits (with the disk-hit
// subset) and misses.
func (c *Cache) Stats() (hits, diskHits, misses int64) {
	return c.hits.Load(), c.diskHits.Load(), c.misses.Load()
}
