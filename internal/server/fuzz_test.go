package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"colt/internal/experiments"
	"colt/internal/metrics"
)

// FuzzCanonicalize feeds arbitrary submit bodies through the decode
// handleSubmit uses (unknown fields refused) and then Canonicalize
// against the real registry. No body may panic. An accepted spec must
// lie within the limits that keep a job's host memory bounded — frames
// in [0, MaxFrames] and scale in [0, MaxScale], on the spec and on the
// resolved options — with refs and retries non-negative. Its hash must
// be stable across calls and ignore trace and deadline_ms, which never
// change a report. Spelling out the frames, scale and seed the spec
// resolved to never changes the hash; spelling out its refs keeps the
// hash exactly when refs/10 equals the resolved warmup, because a refs
// field sets warmup to refs/10. The seed corpus in
// testdata/fuzz/FuzzCanonicalize holds each limit and one past it,
// negative values, 1e308 and an unknown field.
func FuzzCanonicalize(f *testing.F) {
	reg := experiments.Registry()
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		job, err := Canonicalize(spec, reg)
		if err != nil {
			return // refusal is fine; panics are not
		}
		o := job.Opts
		switch {
		case spec.Frames < 0 || spec.Frames > experiments.MaxFrames || o.Frames < 0 || o.Frames > experiments.MaxFrames:
			t.Fatalf("%s: accepted frames %d (resolved %d)", body, spec.Frames, o.Frames)
		case !(spec.Scale >= 0 && spec.Scale <= experiments.MaxScale) || !(o.Scale >= 0 && o.Scale <= experiments.MaxScale):
			t.Fatalf("%s: accepted scale %g (resolved %g)", body, spec.Scale, o.Scale)
		case spec.Refs < 0 || o.Refs < 0:
			t.Fatalf("%s: accepted refs %d (resolved %d)", body, spec.Refs, o.Refs)
		case o.Retries < 0:
			t.Fatalf("%s: accepted retries %d", body, o.Retries)
		}
		again, err := Canonicalize(spec, reg)
		if err != nil || again.Hash != job.Hash {
			t.Fatalf("%s: second call gave hash %q, err %v; first %q", body, again.Hash, err, job.Hash)
		}
		spec.Trace = !spec.Trace
		spec.DeadlineMs = spec.DeadlineMs/2 + 1
		other, err := Canonicalize(spec, reg)
		if err != nil || other.Hash != job.Hash {
			t.Fatalf("%s: trace/deadline_ms changed the hash to %q (err %v), want %q", body, other.Hash, err, job.Hash)
		}
		spelled := spec
		spelled.Frames, spelled.Scale, spelled.Seed = o.Frames, o.Scale, o.Seed
		if other, err := Canonicalize(spelled, reg); err != nil || other.Hash != job.Hash {
			t.Fatalf("%s: spelling out frames %d, scale %g, seed %d changed the hash to %q (err %v), want %q",
				body, o.Frames, o.Scale, o.Seed, other.Hash, err, job.Hash)
		}
		spelled.Refs = o.Refs
		other, err = Canonicalize(spelled, reg)
		if err != nil || (other.Hash == job.Hash) != (o.Refs/10 == o.Warmup) {
			t.Fatalf("%s: spelling out refs %d (warmup %d) gave hash %q (err %v), base %q",
				body, o.Refs, o.Warmup, other.Hash, err, job.Hash)
		}
	})
}

// Cache-open fixture: FuzzCacheOpen stores this report under this key
// before replacing the entry's files with fuzzed bytes.
var (
	cacheFuzzKey    = strings.Repeat("c", 64)
	cacheFuzzReport = []byte(`{"experiment":"stub","records":[]}` + "\n")
)

// FuzzCacheOpen seeds a cache directory with one real Put, replaces
// the entry's .json and its .meta.json with fuzzed bytes, leaves a
// fuzzed stale index.json beside them, and reopens the cache.
// OpenCacheFS must not panic. The key's record is the sidecar's when
// the sidecar parses, names the key and carries a sum; the index.json
// an older daemon wrote changes nothing and is left as it was. Get
// must serve exactly the entry bytes that hash to the record's sum;
// any other entry is evicted, both files removed, and counted once —
// corrupt at Get when open admitted the sidecar, rebuild_evicted at
// open when it refused it. The seed corpus in
// testdata/fuzz/FuzzCacheOpen holds the untouched files, a torn index
// over good and bad sidecars, a flipped entry byte under a good index,
// an index naming another key, a sidecar naming another key, and
// empty files.
func FuzzCacheOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, index, entry, meta []byte) {
		dir := t.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(cacheFuzzKey, "stub", cacheFuzzReport); err != nil {
			t.Fatal(err)
		}
		indexPath := filepath.Join(dir, "index.json")
		entryPath, metaPath := filepath.Join(dir, cacheFuzzKey+".json"), filepath.Join(dir, cacheFuzzKey+metaSuffix)
		for path, b := range map[string][]byte{indexPath: index, entryPath: entry, metaPath: meta} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var side CacheEntry
		recorded := json.Unmarshal(meta, &side) == nil && side.Key == cacheFuzzKey && side.Sum != ""
		verifies := recorded && metrics.Sum256Hex(entry) == side.Sum

		c, err = OpenCache(dir)
		if err != nil {
			t.Fatalf("reopening: %v", err)
		}
		b, ok := c.Get(cacheFuzzKey)
		st := c.Stats()
		if left, err := os.ReadFile(indexPath); err != nil || !bytes.Equal(left, index) {
			t.Fatalf("stale index.json changed: %q (err %v), was %q", left, err, index)
		}
		switch {
		case ok != verifies:
			t.Fatalf("Get served=%v, want %v (sidecar sum %q, entry hashes to %s)",
				ok, verifies, side.Sum, metrics.Sum256Hex(entry))
		case ok && !bytes.Equal(b, entry):
			t.Fatalf("Get served %q, the entry file holds %q", b, entry)
		case ok:
			return
		case recorded && (st.Corrupt != 1 || st.RebuildEvicted != 0):
			t.Fatalf("admitted entry failed Get: corrupt=%d rebuild_evicted=%d, want 1 and 0", st.Corrupt, st.RebuildEvicted)
		case !recorded && (st.RebuildEvicted != 1 || st.Corrupt != 0):
			t.Fatalf("refused sidecar: rebuild_evicted=%d corrupt=%d, want 1 and 0", st.RebuildEvicted, st.Corrupt)
		}
		for _, path := range []string{entryPath, metaPath} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("failed entry left %s behind (stat: %v)", filepath.Base(path), err)
			}
		}
	})
}

// Journal replay fixtures: FuzzJournalReplay's sealed prefix accepts A
// and B and commits A, so B alone is live before the tail.
var (
	journalHashA = strings.Repeat("a", 64)
	journalHashB = strings.Repeat("b", 64)
	journalSpecA = Spec{Experiment: "table1", Quick: true, Seed: 1}
	journalSpecB = Spec{Experiment: "fig18", Quick: true, Seed: 2}
)

func sealedLine(t testing.TB, rec journalRecord) []byte {
	t.Helper()
	line, err := rec.sealed()
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// modelReplay is the journal's replay contract, applied to the tail's
// lines after the prefix: a line counts only when it parses and its
// checksum verifies; a counted accept needs a spec and a hash and
// makes its hash live (first accept fixes the order); a counted commit
// retires its hash; every other line is skipped.
func modelReplay(tail []byte) (map[string]journalLive, []string) {
	live := map[string]journalLive{journalHashB: {Spec: journalSpecB}}
	order := []string{journalHashB}
	for _, line := range bytes.Split(tail, []byte("\n")) {
		var rec journalRecord
		if line = bytes.TrimSpace(line); len(line) == 0 || json.Unmarshal(line, &rec) != nil || !rec.verify() {
			continue
		}
		switch {
		case rec.Op == "accept" && rec.Spec != nil && rec.Hash != "":
			if _, ok := live[rec.Hash]; !ok {
				order = append(order, rec.Hash)
			}
			live[rec.Hash] = journalLive{Spec: *rec.Spec, Trace: rec.Trace}
		case rec.Op == "commit":
			if _, ok := live[rec.Hash]; ok {
				delete(live, rec.Hash)
				order = slices.DeleteFunc(order, func(h string) bool { return h == rec.Hash })
			}
		}
	}
	return live, order
}

// FuzzJournalReplay appends arbitrary bytes to a sealed WAL prefix
// (accept A, accept B, commit A) and replays the whole file.
// replayBytes must never panic, and its live set and order must equal
// modelReplay's: a torn, bit-flipped or unknown line changes nothing,
// so committed job A comes back only through a verifying re-accept.
// The seed corpus in testdata/fuzz/FuzzJournalReplay holds a torn
// final line, a bit-flipped checksum, CRLF line ends, an unknown op,
// an accept without a spec and a verifying re-accept of A.
func FuzzJournalReplay(f *testing.F) {
	var prefix []byte
	for _, rec := range []journalRecord{
		{Op: "accept", Hash: journalHashA, Spec: &journalSpecA},
		{Op: "accept", Hash: journalHashB, Spec: &journalSpecB},
		{Op: "commit", Hash: journalHashA},
	} {
		prefix = append(prefix, sealedLine(f, rec)...)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		log.SetOutput(io.Discard)
		defer log.SetOutput(os.Stderr)
		jl := &Journal{live: make(map[string]journalLive)}
		jl.replayBytes(append(slices.Clip(prefix), tail...))
		live, order := modelReplay(tail)
		if !slices.Equal(jl.order, order) || !maps.EqualFunc(jl.live, live, func(a, b journalLive) bool {
			return a.Trace == b.Trace && reflect.DeepEqual(a.Spec, b.Spec)
		}) {
			t.Fatalf("tail %q: replay left order %v live %v, model %v %v", tail, jl.order, jl.live, order, live)
		}
		if int(jl.liveN.Load()) != len(live) {
			t.Fatalf("tail %q: live counter %d, %d live", tail, jl.liveN.Load(), len(live))
		}
	})
}
