package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"colt/internal/metrics"
	"colt/internal/server/faultfs"
)

// metaSuffix is the per-entry sidecar suffix: <key>.meta.json holds
// the entry's index record, written durably next to the entry file
// itself. The sidecars are the cache's only index: open reads them,
// nothing restates them.
const metaSuffix = ".meta.json"

// CacheEntry is one cached report's index record. Key is the content
// address (SHA-256 of the canonical spec JSON); Sum is the SHA-256 of
// the report bytes, the integrity check applied on every read so a
// corrupted or hand-edited entry is recomputed, never served.
type CacheEntry struct {
	Key        string `json:"key"`
	Experiment string `json:"experiment"`
	Sum        string `json:"sha256"`
	Size       int    `json:"size"`
}

// Cache is the content-addressed result store. With a directory it
// persists each report as <dir>/<key>.json plus a durable per-entry
// meta sidecar, and a reopen rebuilds its index from the sidecars;
// with an empty directory it is memory-only. All methods are safe for
// concurrent use: reads share an RWMutex read lock and do their file
// I/O and hash verification outside any lock, so a zipf-hot key
// served to many clients at once never serializes on the mutex for
// the expensive part.
//
// Crash tolerance: every durable write goes through the injectable
// filesystem seam (internal/server/faultfs) and is fsynced —
// temp-write, fsync file, rename, fsync parent directory — so a
// SIGKILL or power cut leaves either the old state or the new, never
// a torn file the next boot trusts. When the disk turns hostile the
// cache degrades to a memory overlay (setDegraded) instead of
// failing jobs: entries written while degraded are served from
// memory and flushed back to disk when the circuit breaker closes.
type Cache struct {
	mu      sync.RWMutex
	dir     string
	fs      faultfs.FS
	entries map[string]CacheEntry
	// mem is the byte store for memory mode, and the degraded-mode
	// overlay for disk mode. Values are immutable once stored.
	mem map[string][]byte

	degraded atomic.Bool // disk mode only: writes go to the overlay

	hits, misses, corrupt atomic.Uint64
	degradedPuts          atomic.Uint64

	// entriesN and overlayN mirror len(entries) and len(mem) so the
	// metrics gauges read them without the cache lock. Maintained at
	// every mutation site (always under mu).
	entriesN atomic.Int64
	overlayN atomic.Int64

	// rebuildEvicted counts the sidecars open refused; set once.
	rebuildEvicted int
}

// OpenCache opens (or initializes) a cache rooted at dir, indexing
// the entries a prior run left there. dir == "" selects memory-only
// mode.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheFS(dir, faultfs.OS())
}

// OpenCacheFS is OpenCache with an explicit filesystem seam (the
// fault plane's entry point). The index is built from the per-entry
// meta sidecars alone: a sidecar that parses, names a valid key equal
// to its file name, and carries a sum admits its entry without
// reading the entry's bytes — every Get verifies them against that
// sum, so a corrupt entry is evicted at its first read. Any other
// sidecar is evicted at open, with its entry file, and counted. A
// crashed daemon recovers its cache instead of recomputing it.
func OpenCacheFS(dir string, fsys faultfs.FS) (*Cache, error) {
	c := &Cache{dir: dir, fs: fsys, entries: make(map[string]CacheEntry), mem: make(map[string][]byte)}
	if dir == "" {
		return c, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: scanning %s: %w", dir, err)
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, metaSuffix) {
			continue
		}
		key := strings.TrimSuffix(name, metaSuffix)
		raw, err := fsys.ReadFile(filepath.Join(dir, name))
		var e CacheEntry
		if err != nil || json.Unmarshal(raw, &e) != nil || e.Key != key || e.Sum == "" || !validKey(key) {
			// A directory entry name holds no separator, so both paths
			// stay inside dir whatever the key.
			fsys.Remove(filepath.Join(dir, name))
			fsys.Remove(c.entryPath(key))
			c.rebuildEvicted++
			continue
		}
		c.entries[key] = e
	}
	c.entriesN.Store(int64(len(c.entries)))
	return c, nil
}

// validKey reports whether key may name an entry: non-empty lowercase
// ASCII letters and digits. Every spec hash (64 lowercase hex digits)
// passes; a key that could reach outside the cache directory ("..",
// "/") cannot.
func validKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return key != ""
}

// Dir returns the cache's directory ("" in memory mode).
func (c *Cache) Dir() string { return c.dir }

// setDegraded flips disk-mode writes between the real filesystem and
// the memory overlay. No-op in memory mode.
func (c *Cache) setDegraded(on bool) {
	if c.dir != "" {
		c.degraded.Store(on)
	}
}

func (c *Cache) isDegraded() bool { return c.degraded.Load() }

// entryPath is the report file for a key; metaPath its sidecar.
func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func (c *Cache) metaPath(key string) string {
	return filepath.Join(c.dir, key+metaSuffix)
}

// Get returns the cached report bytes for key, verifying them against
// the recorded hash. A missing, unreadable, or corrupted entry counts
// as a miss (corruption is additionally counted and the entry
// evicted) so the caller recomputes instead of serving bad bytes.
func (c *Cache) Get(key string) ([]byte, bool) {
	b, _, ok := c.GetSum(key)
	return b, ok
}

// GetSum is Get that also returns the SHA-256 the bytes were verified
// against. Callers label the bytes with it (X-Report-Sha256) instead
// of looking the entry up again, which a concurrent eviction could
// race.
//
// Only the index lookup holds the (read) lock; the file read and the
// SHA-256 verification run lock-free. The memory overlay (memory
// mode, or entries written while degraded) is checked first. A key
// validKey refuses is a miss.
func (c *Cache) GetSum(key string) ([]byte, string, bool) {
	if !validKey(key) {
		c.misses.Add(1)
		return nil, "", false
	}
	c.mu.RLock()
	e, ok := c.entries[key]
	var b []byte
	if ok {
		b = c.mem[key] // immutable once stored; safe to use after unlock
	}
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, "", false
	}
	if b == nil {
		if c.dir == "" {
			// Memory mode promised an entry it no longer holds.
			c.evictCorrupt(key, e.Sum)
			return nil, "", false
		}
		var err error
		b, err = c.fs.ReadFile(c.entryPath(key))
		if err != nil {
			// The index promised an entry the disk no longer has:
			// treat as corruption, evict, recompute.
			c.evictCorrupt(key, e.Sum)
			return nil, "", false
		}
	}
	if metrics.Sum256Hex(b) != e.Sum {
		c.evictCorrupt(key, e.Sum)
		return nil, "", false
	}
	c.hits.Add(1)
	return b, e.Sum, true
}

// evictCorrupt drops a failed entry and counts it as both a
// corruption and a miss. The verification happened outside the lock,
// so it re-checks that the entry is still the one that failed — a
// concurrent Put of fresh bytes must not be evicted.
func (c *Cache) evictCorrupt(key, failedSum string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.Sum == failedSum {
		delete(c.entries, key)
		c.entriesN.Add(-1)
		if _, had := c.mem[key]; had {
			delete(c.mem, key)
			c.overlayN.Add(-1)
		}
		if c.dir != "" {
			c.fs.Remove(c.entryPath(key))
			c.fs.Remove(c.metaPath(key))
		}
	}
	c.mu.Unlock()
	c.corrupt.Add(1)
	c.misses.Add(1)
}

// Put stores report bytes under key. In disk mode the entry file and
// its meta sidecar are written durably (temp + fsync + rename + dir
// fsync) before the entry becomes visible; if the disk write fails
// the bytes are kept in the memory overlay — the result is still
// served — and the error is returned so the caller can feed its
// circuit breaker. While degraded, Puts skip the disk entirely.
func (c *Cache) Put(key, experiment string, b []byte) error {
	_, err := c.PutSum(key, experiment, b)
	return err
}

// PutSum is Put that also returns the SHA-256 it recorded for b — the
// sum every later Get verifies against. The sum is returned even when
// the disk write failed: the bytes are then served from the overlay.
// A key validKey refuses is an error, and nothing is stored.
func (c *Cache) PutSum(key, experiment string, b []byte) (string, error) {
	if !validKey(key) {
		return "", fmt.Errorf("cache: invalid key %q", key)
	}
	e := CacheEntry{Key: key, Experiment: experiment, Sum: metrics.Sum256Hex(b), Size: len(b)}
	if c.dir == "" {
		c.putOverlay(key, e, b)
		return e.Sum, nil
	}
	if c.isDegraded() {
		c.putOverlay(key, e, b)
		c.degradedPuts.Add(1)
		return e.Sum, nil
	}
	if err := c.writeEntryFiles(e, b); err != nil {
		c.putOverlay(key, e, b)
		c.degradedPuts.Add(1)
		return e.Sum, err
	}
	c.mu.Lock()
	if _, existed := c.entries[key]; !existed {
		c.entriesN.Add(1)
	}
	c.entries[key] = e
	if _, had := c.mem[key]; had {
		delete(c.mem, key) // the durable copy supersedes any overlay copy
		c.overlayN.Add(-1)
	}
	c.mu.Unlock()
	return e.Sum, nil
}

// putOverlay publishes an entry backed by memory only.
func (c *Cache) putOverlay(key string, e CacheEntry, b []byte) {
	stored := append([]byte(nil), b...)
	c.mu.Lock()
	if _, had := c.mem[key]; !had {
		c.overlayN.Add(1)
	}
	c.mem[key] = stored
	if _, existed := c.entries[key]; !existed {
		c.entriesN.Add(1)
	}
	c.entries[key] = e
	c.mu.Unlock()
}

// writeEntryFiles writes the entry file and its meta sidecar, each
// crash-atomically and fsynced.
func (c *Cache) writeEntryFiles(e CacheEntry, b []byte) error {
	if err := faultfs.WriteFileSync(c.fs, c.entryPath(e.Key), b); err != nil {
		return fmt.Errorf("cache: writing entry: %w", err)
	}
	meta, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("cache: encoding entry meta: %w", err)
	}
	if err := faultfs.WriteFileSync(c.fs, c.metaPath(e.Key), append(meta, '\n')); err != nil {
		return fmt.Errorf("cache: writing entry meta: %w", err)
	}
	return nil
}

// FlushOverlay writes entries that only live in the memory overlay
// back to disk — the recovery step after the circuit breaker closes.
// Returns how many entries were flushed; stops at the first disk
// error (the caller re-opens the breaker).
func (c *Cache) FlushOverlay() (int, error) {
	if c.dir == "" {
		return 0, nil
	}
	c.mu.RLock()
	keys := make([]string, 0, len(c.mem))
	for k := range c.mem {
		keys = append(keys, k)
	}
	c.mu.RUnlock()
	sort.Strings(keys)
	flushed := 0
	for _, k := range keys {
		c.mu.RLock()
		e, ok := c.entries[k]
		b := c.mem[k]
		c.mu.RUnlock()
		if !ok || b == nil {
			continue
		}
		if err := c.writeEntryFiles(e, b); err != nil {
			return flushed, err
		}
		c.mu.Lock()
		if _, had := c.mem[k]; had {
			delete(c.mem, k)
			c.overlayN.Add(-1)
		}
		c.mu.Unlock()
		flushed++
	}
	return flushed, nil
}

// Entry returns the index record for key, if present.
func (c *Cache) Entry(key string) (CacheEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[key]
	return e, ok
}

// CacheStats is the cache's counter snapshot for /v1/stats.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"`
	// RebuildEvicted counts meta sidecars open refused (unreadable,
	// unparseable, naming another or an invalid key, or missing a sum)
	// and removed with their entry files.
	RebuildEvicted int `json:"rebuild_evicted,omitempty"`
	// DegradedPuts counts entries that went to the memory overlay
	// because the disk was failing (or the breaker already open).
	DegradedPuts uint64 `json:"degraded_puts,omitempty"`
	// OverlayEntries is the current overlay population in disk mode —
	// results that survive only until the process exits unless
	// FlushOverlay lands them.
	OverlayEntries int `json:"overlay_entries,omitempty"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.entries)
	overlay := 0
	if c.dir != "" {
		overlay = len(c.mem)
	}
	c.mu.RUnlock()
	return CacheStats{
		Entries:        n,
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Corrupt:        c.corrupt.Load(),
		RebuildEvicted: c.rebuildEvicted,
		DegradedPuts:   c.degradedPuts.Load(),
		OverlayEntries: overlay,
	}
}
