package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"colt/internal/fault"
	"colt/internal/metrics"
	"colt/internal/server/faultfs"
)

func TestCachePutGetRoundtrip(t *testing.T) {
	for _, mode := range []string{"disk", "memory"} {
		t.Run(mode, func(t *testing.T) {
			dir := ""
			if mode == "disk" {
				dir = t.TempDir()
			}
			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte(`{"report":"bytes"}`)
			if _, ok := c.Get("k1"); ok {
				t.Fatal("hit on empty cache")
			}
			if err := c.Put("k1", "exp", want); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Get("k1")
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
			}
			e, ok := c.Entry("k1")
			if !ok || e.Sum != metrics.Sum256Hex(want) || e.Size != len(want) {
				t.Fatalf("entry %+v inconsistent with stored bytes", e)
			}
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 || st.Entries != 1 {
				t.Fatalf("stats %+v, want 1 hit / 1 miss / 0 corrupt / 1 entry", st)
			}
		})
	}
}

// TestCacheCorruptEntryDetectedAndRecomputed is the satellite's core
// claim: a corrupted on-disk entry is detected via hash mismatch,
// evicted, and the next Put restores byte-identical service.
func TestCacheCorruptEntryDetectedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"schema":"colt-metrics/1","records":[]}`)
	if err := c.Put("k1", "exp", want); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored bytes behind the cache's back.
	path := filepath.Join(dir, "k1.json")
	if err := os.WriteFile(path, []byte(`{"schema":"tampered"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, ok := c.Get("k1"); ok {
		t.Fatalf("corrupted entry served: %q", b)
	}
	st := c.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want corrupt=1 entries=0 after eviction", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupted file not removed: %v", err)
	}
	// Recompute path: a fresh Put restores identical service.
	if err := c.Put("k1", "exp", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("recomputed Get = %q, %v; want original bytes", got, ok)
	}
}

func TestCacheMissingFileTreatedAsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", "exp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "k1.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("served an entry whose file is gone")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v, want corrupt=1", st)
	}
}

// TestCacheIndexSurvivesReopen: SaveIndex + reopen serves prior
// results — the restart-reuse half of the drain contract.
func TestCacheIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := []byte(`{"a":1}`), []byte(`{"b":2}`)
	if err := c.Put("ka", "expA", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("kb", "expB", b); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string][]byte{"ka": a, "kb": b} {
		got, ok := c2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("after reopen, Get(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if st := c2.Stats(); st.Entries != 2 || st.Hits != 2 {
		t.Fatalf("reopened stats %+v, want entries=2 hits=2", st)
	}
}

func TestCacheMemoryModeSaveIndexIsNoop(t *testing.T) {
	c, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", "e", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	if c.Dir() != "" {
		t.Fatal("memory cache reports a directory")
	}
}

// TestCacheIndexRebuildFromSidecars is the satellite's core claim: a
// deleted (or never-written) index.json is reconstructed from the
// per-entry meta sidecars — every hash-verified entry is re-indexed,
// and a corrupted one is evicted and counted, not trusted.
func TestCacheIndexRebuildFromSidecars(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	good1, good2, bad := []byte(`{"g":1}`), []byte(`{"g":2}`), []byte(`{"b":3}`)
	for key, b := range map[string][]byte{"ka": good1, "kb": good2, "kc": bad} {
		if err := c.Put(key, "exp", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	// Crash aftermath: index gone, one entry's bytes corrupted.
	if err := os.Remove(filepath.Join(dir, cacheIndexFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "kc.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Rebuilt != 2 || st.RebuildEvicted != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want rebuilt=2 rebuild_evicted=1 entries=2", st)
	}
	for key, want := range map[string][]byte{"ka": good1, "kb": good2} {
		got, ok := c2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("rebuilt Get(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if _, ok := c2.Get("kc"); ok {
		t.Fatal("corrupt entry survived the rebuild")
	}
	for _, name := range []string{"kc.json", "kc" + metaSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("evicted file %s still on disk", name)
		}
	}
}

// TestCacheTornIndexRebuilds: a half-written index.json (the torn
// rename-less crash signature) is flagged and rebuilt from sidecars
// instead of failing the open or silently emptying the cache.
func TestCacheTornIndexRebuilds(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"a":1}`)
	if err := c.Put("ka", "exp", want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cacheIndexFile), []byte(`{"schema":"colt-ca`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if !st.IndexTorn || st.Rebuilt != 1 {
		t.Fatalf("stats %+v, want index_torn=true rebuilt=1", st)
	}
	if got, ok := c2.Get("ka"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after torn-index rebuild = %q, %v", got, ok)
	}
}

// TestCachePutFsyncFaultFallsBackToOverlay is the fsync-site
// regression for the Put bugfix: with the fsync-fail site armed, Put
// surfaces the injected error (proving the entry write path really
// syncs), leaves no torn entry visible on disk, and still serves the
// result from the memory overlay.
func TestCachePutFsyncFaultFallsBackToOverlay(t *testing.T) {
	dir := t.TempDir()
	plane := faultfs.NewPlane(fault.Spec{Rates: map[fault.Site]float64{faultfs.OpFsync: 1}}, 11)
	c, err := OpenCacheFS(dir, faultfs.Faulty(faultfs.OS(), plane))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"r":1}`)
	err = c.Put("ka", "exp", want)
	if err == nil || !fault.IsInjected(err) {
		t.Fatalf("Put under fsync-fail = %v, want injected error", err)
	}
	if plane.InjectedTotal() == 0 {
		t.Fatal("fsync site never fired: the entry write is not syncing")
	}
	if _, serr := os.Stat(filepath.Join(dir, "ka.json")); !os.IsNotExist(serr) {
		t.Fatal("failed Put left an entry file behind")
	}
	got, ok := c.Get("ka")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("overlay Get = %q, %v; want the result served anyway", got, ok)
	}
	if st := c.Stats(); st.DegradedPuts != 1 || st.OverlayEntries != 1 {
		t.Fatalf("stats %+v, want degraded_puts=1 overlay_entries=1", st)
	}
}

// TestCacheSaveIndexFsyncFault: the index commit path syncs too —
// with fsync-fail armed, SaveIndex errors and no index.json appears.
func TestCacheSaveIndexFsyncFault(t *testing.T) {
	dir := t.TempDir()
	seed, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("ka", "exp", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	plane := faultfs.NewPlane(fault.Spec{Rates: map[fault.Site]float64{faultfs.OpFsync: 1}}, 12)
	c, err := OpenCacheFS(dir, faultfs.Faulty(faultfs.OS(), plane))
	if err != nil {
		t.Fatal(err)
	}
	err = c.SaveIndex()
	if err == nil || !fault.IsInjected(err) {
		t.Fatalf("SaveIndex under fsync-fail = %v, want injected error", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, cacheIndexFile)); !os.IsNotExist(serr) {
		t.Fatal("failed SaveIndex left an index file behind")
	}
}

// TestCacheDegradedOverlayFlush: while degraded, Puts stay in memory
// and touch no disk; after recovery, FlushOverlay lands them durably
// and a reopened cache serves them.
func TestCacheDegradedOverlayFlush(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.setDegraded(true)
	want := []byte(`{"d":1}`)
	if err := c.Put("ka", "exp", want); err != nil {
		t.Fatalf("degraded Put errored: %v", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "ka.json")); !os.IsNotExist(serr) {
		t.Fatal("degraded Put touched the disk")
	}
	if got, ok := c.Get("ka"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("degraded Get = %q, %v", got, ok)
	}
	if err := c.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(filepath.Join(dir, cacheIndexFile)); !os.IsNotExist(serr) {
		t.Fatal("degraded SaveIndex wrote an index")
	}

	c.setDegraded(false)
	n, err := c.FlushOverlay()
	if err != nil || n != 1 {
		t.Fatalf("FlushOverlay = %d, %v; want 1, nil", n, err)
	}
	if st := c.Stats(); st.OverlayEntries != 0 {
		t.Fatalf("overlay not drained: %+v", st)
	}
	if err := c.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get("ka"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("flushed entry lost across reopen: %q, %v", got, ok)
	}
}
