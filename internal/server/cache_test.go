package server

import (
	"bytes"
	"encoding/json"
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
			if c.Dir() != dir {
				t.Fatalf("Dir() = %q, want %q", c.Dir(), dir)
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

// TestCacheIndexSurvivesReopen: a reopen indexes prior results from
// their sidecars alone — the restart-reuse half of the drain contract.
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
	if e, ok := c2.Entry("kb"); !ok || e.Experiment != "expB" || e.Size != len(b) {
		t.Fatalf("reopened entry %+v, %v; want the sidecar's record", e, ok)
	}
}

// TestCacheIndexRebuildFromSidecars: open admits every sidecar that
// parses and names its key without reading the entry bytes, so a
// corrupted entry is admitted and then evicted at its first Get
// (corrupt=1), while an unparseable sidecar is evicted at open
// (rebuild_evicted=1) — in both cases with both files.
func TestCacheIndexRebuildFromSidecars(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	good1, good2, bad := []byte(`{"g":1}`), []byte(`{"g":2}`), []byte(`{"b":3}`)
	for key, b := range map[string][]byte{"ka": good1, "kb": good2, "kc": bad, "kd": bad} {
		if err := c.Put(key, "exp", b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash aftermath: one entry's bytes corrupted, one sidecar torn.
	if err := os.WriteFile(filepath.Join(dir, "kc.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "kd"+metaSuffix), []byte(`{"key":"kd","sha`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 3 || st.RebuildEvicted != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want entries=3 rebuild_evicted=1 corrupt=0", st)
	}
	for _, name := range []string{"kd.json", "kd" + metaSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("refused sidecar's file %s still on disk", name)
		}
	}
	for key, want := range map[string][]byte{"ka": good1, "kb": good2} {
		got, ok := c2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("rebuilt Get(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	if _, ok := c2.Get("kc"); ok {
		t.Fatal("corrupt entry served")
	}
	if st := c2.Stats(); st.Entries != 2 || st.Corrupt != 1 {
		t.Fatalf("stats %+v after the corrupt Get, want entries=2 corrupt=1", st)
	}
	for _, name := range []string{"kc.json", "kc" + metaSuffix} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("evicted file %s still on disk", name)
		}
	}
}

// TestCacheTornIndexRebuilds: an index.json an older daemon left
// behind — torn, or whole but stale — changes nothing: the entries
// are the sidecars', a key only the index names does not exist, and a
// stale key naming a path ("../victim") can neither read nor delete
// the file beside the cache directory.
func TestCacheTornIndexRebuilds(t *testing.T) {
	stale, err := json.Marshal(map[string]any{"schema": "colt-cache/1", "entries": []CacheEntry{
		{Key: "kz", Experiment: "exp", Sum: metrics.Sum256Hex([]byte("z")), Size: 1},
		{Key: "../victim", Experiment: "exp", Sum: metrics.Sum256Hex([]byte("other")), Size: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for name, index := range map[string][]byte{"torn": []byte(`{"schema":"colt-ca`), "stale": stale} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "cache")
			victim := filepath.Join(root, "victim.json")
			if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte(`{"a":1}`)
			if err := c.Put("ka", "exp", want); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "kz.json"), []byte("z"), 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st := c2.Stats(); st.Entries != 1 || st.RebuildEvicted != 0 {
				t.Fatalf("stats %+v, want entries=1 rebuild_evicted=0", st)
			}
			if got, ok := c2.Get("ka"); !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get beside a %s index = %q, %v", name, got, ok)
			}
			for _, key := range []string{"kz", "../victim"} {
				if b, ok := c2.Get(key); ok {
					t.Fatalf("Get(%q) served %q, which only the index names", key, b)
				}
			}
			if got, err := os.ReadFile(victim); err != nil || string(got) != "precious" {
				t.Fatalf("victim beside the cache dir = %q, %v; want it intact", got, err)
			}
		})
	}
}

// TestCacheKeysArePlainNames: a key must be non-empty lowercase ASCII
// letters and digits. Put refuses any other key with an error and
// stores nothing, not even in memory; Get misses on it; and open
// evicts a sidecar whose file name gives one. Nothing is written
// outside the cache directory.
func TestCacheKeysArePlainNames(t *testing.T) {
	bad := []string{"", "../outside", "a/b", "..", "KA", "k.1", "k-1", "k\\1"}
	for _, mode := range []string{"disk", "memory"} {
		t.Run(mode, func(t *testing.T) {
			root := t.TempDir()
			dir := ""
			if mode == "disk" {
				dir = filepath.Join(root, "cache")
			}
			c, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range bad {
				if _, err := c.PutSum(key, "exp", []byte("x")); err == nil {
					t.Fatalf("PutSum(%q) accepted", key)
				}
				if _, ok := c.Get(key); ok {
					t.Fatalf("Get(%q) hit", key)
				}
			}
			if st := c.Stats(); st.Entries != 0 || st.OverlayEntries != 0 || st.DegradedPuts != 0 || st.Misses != uint64(len(bad)) {
				t.Fatalf("stats %+v, want nothing stored and %d misses", st, len(bad))
			}
			if names, _ := os.ReadDir(root); mode == "disk" && len(names) != 1 {
				t.Fatalf("files beside the cache dir: %v", names)
			}
		})
	}
	t.Run("open", func(t *testing.T) {
		dir := t.TempDir()
		meta := []byte(`{"key":"KA","experiment":"exp","sha256":"` + metrics.Sum256Hex([]byte("x")) + `","size":1}`)
		if err := os.WriteFile(filepath.Join(dir, "KA"+metaSuffix), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "KA.json"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Entries != 0 || st.RebuildEvicted != 1 {
			t.Fatalf("stats %+v, want entries=0 rebuild_evicted=1", st)
		}
		if names, _ := os.ReadDir(dir); len(names) != 0 {
			t.Fatalf("refused sidecar left %v behind", names)
		}
	})
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

	c.setDegraded(false)
	n, err := c.FlushOverlay()
	if err != nil || n != 1 {
		t.Fatalf("FlushOverlay = %d, %v; want 1, nil", n, err)
	}
	if st := c.Stats(); st.OverlayEntries != 0 {
		t.Fatalf("overlay not drained: %+v", st)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get("ka"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("flushed entry lost across reopen: %q, %v", got, ok)
	}
}
