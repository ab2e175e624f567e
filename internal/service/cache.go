package service

import (
	"bytes"
	"container/list"
	"sync"

	"repro/internal/mining"
	"repro/internal/obsv"
)

// Cache metrics (see /metricsz); aggregated across all caches in the
// process, while per-cache counters remain on CacheStats.
const (
	mnCacheHits      = "service_cache_hits_total"
	mnCacheMisses    = "service_cache_misses_total"
	mnCacheEvictions = "service_cache_evictions_total"
)

var (
	cacheHits      = obsv.Default.Counter(mnCacheHits, "result-cache lookups that found an entry")
	cacheMisses    = obsv.Default.Counter(mnCacheMisses, "result-cache lookups that found nothing")
	cacheEvictions = obsv.Default.Counter(mnCacheEvictions, "entries evicted to respect the byte budget")
)

// CacheStats is a point-in-time view of the result cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"sizeBytes"`
	MaxBytes  int64 `json:"maxBytes"`
}

// Body is a finished result in its served form: the mining.Write
// encoding plus the number of itemsets it holds. Keeping results encoded
// makes the cache budget count the bytes actually held, and lets a
// cache hit be served without re-encoding. Data is shared by every
// reader and must never be written.
type Body struct {
	Data     []byte
	Itemsets int
}

// encodeBody serializes res into its served form, one allocation of
// exactly the bytes the body counts.
func encodeBody(res *mining.Result) Body {
	return Body{Data: mining.Encode(res), Itemsets: res.Len()}
}

// Decode parses the body back into a result.
func (b Body) Decode() (*mining.Result, error) {
	return mining.Read(bytes.NewReader(b.Data))
}

// Cache is a byte-bounded LRU of encoded mining results keyed by
// (dataset, algorithm, minsup, variant), charged at their body length.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64
	sizeBytes int64
	ll        *list.List // front = most recently used
	index     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key  Key
	body Body
}

// NewCache builds a cache bounded to maxBytes of encoded result bodies
// (default 64 MiB when maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		index:    make(map[Key]*list.Element),
	}
}

// Get returns the cached body for k, marking it most recently used.
func (c *Cache) Get(k Key) (Body, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[k]
	if !ok {
		c.misses++
		cacheMisses.Inc()
		return Body{}, false
	}
	c.hits++
	cacheHits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under k, evicting least-recently-used entries until
// the byte budget holds. A body larger than the whole budget is not
// cached.
func (c *Cache) Put(k Key, body Body) {
	size := int64(len(body.Data))
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[k]; ok { // refresh existing entry
		ent := el.Value.(*cacheEntry)
		c.sizeBytes += size - int64(len(ent.body.Data))
		ent.body = body
		c.ll.MoveToFront(el)
	} else {
		c.index[k] = c.ll.PushFront(&cacheEntry{key: k, body: body})
		c.sizeBytes += size
	}
	for c.sizeBytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.index, ent.key)
		c.sizeBytes -= int64(len(ent.body.Data))
		c.evictions++
		cacheEvictions.Inc()
	}
}

// DropDataset removes every entry keyed to the named dataset — the
// invalidation RemoveDataset needs so a later dataset registered under
// the same name cannot be served another dataset's results.
func (c *Cache) DropDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.key.Dataset == name {
			c.ll.Remove(el)
			delete(c.index, ent.key)
			c.sizeBytes -= int64(len(ent.body.Data))
		}
		el = next
	}
}

// Len is the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		SizeBytes: c.sizeBytes,
		MaxBytes:  c.maxBytes,
	}
}
