package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"

	"colt/internal/metrics"
	"colt/internal/server/faultfs"
)

// journalFile is the accepted-job write-ahead log inside the cache
// directory. One JSON record per line, each fsynced before the
// admission that wrote it returns: "accept" records carry the spec at
// admission, "commit" records mark the job resolved (result cached,
// failed, canceled by the user or its deadline, or refused for good
// by a restart's replay). The live set — accepts without a matching
// commit — is the only way queued work survives the process: a crash
// leaves it live, a graceful drain leaves every still-queued job's
// accept live on purpose, and replay at startup resubmits it.
//
// Replay is idempotent because results are content-addressed: a
// re-accepted spec whose report landed in the cache before the crash
// (its commit record lost to the same crash) completes instantly as a
// cache hit instead of re-simulating.
const journalFile = "journal.wal"

// journalSchema identifies the record layout.
const journalSchema = "colt-journal/1"

// journalRecord is one WAL line. Sum is the SHA-256 of the record's
// canonical encoding with Sum itself empty, so a torn or bit-flipped
// line is detected on replay instead of being trusted. Trace carries
// the admission's request-scoped trace ID so a replayed job keeps the
// identity its original submission logged under; records written
// before tracing existed simply omit it and still verify.
type journalRecord struct {
	Op    string `json:"op"` // "accept" | "commit"
	Hash  string `json:"hash"`
	Spec  *Spec  `json:"spec,omitempty"` // accept records only
	Trace string `json:"trace,omitempty"`
	Sum   string `json:"sum,omitempty"`
}

// journalLive is one accepted-but-unresolved record as surfaced to
// startup replay: the spec to resubmit and the trace ID it was
// originally admitted under. Hash, the record's spec hash, is set on
// the records openJournal returns, so replay can commit one it
// refuses.
type journalLive struct {
	Hash  string
	Spec  Spec
	Trace string
}

// sealed returns the record's wire line: the JSON encoding with Sum
// filled in, newline-terminated.
func (r journalRecord) sealed() ([]byte, error) {
	r.Sum = ""
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	r.Sum = metrics.Sum256Hex(body)
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// verify re-derives the checksum of a parsed record and compares it
// against the recorded one.
func (r journalRecord) verify() bool {
	want := r.Sum
	r.Sum = ""
	body, err := json.Marshal(r)
	if err != nil {
		return false
	}
	return want != "" && metrics.Sum256Hex(body) == want
}

// Journal is the accepted-job WAL. All appends are serialized under
// one mutex and fsynced before returning — a single write-ahead log
// is inherently a serialization point; admission's cache-hit and
// coalesce fast paths never touch it.
type Journal struct {
	mu   sync.Mutex
	fs   faultfs.FS
	path string
	f    faultfs.File

	// live is the accept set not yet committed, keyed by spec hash
	// (duplicate accepts of one hash collapse; replay submits once).
	live map[string]journalLive
	// order preserves first-accept order for replay.
	order []string

	// Counters are atomics so a metrics scrape reads them without
	// touching mu — the WAL mutex orders durable appends, not
	// observability. liveN mirrors len(live) under mu.
	appended  atomic.Uint64
	committed atomic.Uint64
	torn      atomic.Uint64 // corrupt/torn records skipped during open
	liveN     atomic.Int64
}

// JournalStats is the journal's counter snapshot for /v1/stats.
type JournalStats struct {
	// Live is the current accepted-but-unresolved record count — what
	// a crash right now would replay.
	Live int `json:"live"`
	// Appended and Committed count records written this process life.
	Appended  uint64 `json:"appended"`
	Committed uint64 `json:"committed"`
	// Replayed counts jobs resubmitted from the journal at startup.
	Replayed uint64 `json:"replayed"`
	// TornSkipped counts corrupt or torn records skipped (with a
	// logged warning) when the journal was opened.
	TornSkipped uint64 `json:"torn_skipped"`
	// SkippedDegraded counts appends suppressed while the disk
	// circuit breaker was open — jobs admitted without durability.
	SkippedDegraded uint64 `json:"skipped_degraded"`
}

// openJournal opens (or creates) the WAL in dir, returning the
// journal and the live specs of a prior crashed run, in first-accept
// order. Torn records — a final line truncated mid-write, a checksum
// mismatch — are skipped with a counted warning, never a startup
// failure: the journal exists to survive crashes, so its own tail is
// allowed to be a casualty of one.
func openJournal(fsys faultfs.FS, dir string) (*Journal, []journalLive, error) {
	jl := &Journal{
		fs:   fsys,
		path: filepath.Join(dir, journalFile),
		live: make(map[string]journalLive),
	}
	raw, err := fsys.ReadFile(jl.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", jl.path, err)
	}
	if len(raw) > 0 {
		jl.replayBytes(raw)
	}
	f, err := fsys.OpenAppend(jl.path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening %s for append: %w", jl.path, err)
	}
	jl.f = f
	recs := make([]journalLive, 0, len(jl.order))
	for _, h := range jl.order {
		rec := jl.live[h]
		rec.Hash = h
		recs = append(recs, rec)
	}
	return jl, recs, nil
}

// replayBytes scans the WAL contents, building the live set. A final
// line without its newline is the torn-write signature and is
// verified like any other; any record that fails to parse or verify
// is skipped and counted.
func (jl *Journal) replayBytes(raw []byte) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || !rec.verify() {
			jl.torn.Add(1)
			log.Printf("journal: skipping torn record at line %d (parse or checksum failure)", lineNo)
			continue
		}
		switch rec.Op {
		case "accept":
			if rec.Spec == nil || rec.Hash == "" {
				jl.torn.Add(1)
				log.Printf("journal: skipping malformed accept at line %d", lineNo)
				continue
			}
			if _, ok := jl.live[rec.Hash]; !ok {
				jl.order = append(jl.order, rec.Hash)
			}
			jl.live[rec.Hash] = journalLive{Spec: *rec.Spec, Trace: rec.Trace}
		case "commit":
			if _, ok := jl.live[rec.Hash]; ok {
				delete(jl.live, rec.Hash)
				jl.dropOrder(rec.Hash)
			}
		default:
			jl.torn.Add(1)
			log.Printf("journal: skipping record with unknown op %q at line %d", rec.Op, lineNo)
		}
	}
	// A scanner error here means an oversized or unterminated tail;
	// whatever parsed before it stands.
	if err := sc.Err(); err != nil {
		jl.torn.Add(1)
		log.Printf("journal: stopped scanning after line %d: %v", lineNo, err)
	}
	jl.liveN.Store(int64(len(jl.live)))
}

func (jl *Journal) dropOrder(hash string) {
	for i, h := range jl.order {
		if h == hash {
			jl.order = append(jl.order[:i], jl.order[i+1:]...)
			return
		}
	}
}

// append seals rec and writes it through with an fsync.
func (jl *Journal) append(rec journalRecord) error {
	line, err := rec.sealed()
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	if jl.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := jl.f.Write(line); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Accept durably records an admitted job — and the trace ID it was
// admitted under — before its submission returns. Duplicate accepts of
// one hash are legal (a replayed spec re-accepts itself) and collapse
// in the live set.
func (jl *Journal) Accept(hash string, spec Spec, trace string) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.append(journalRecord{Op: "accept", Hash: hash, Spec: &spec, Trace: trace}); err != nil {
		return err
	}
	jl.appended.Add(1)
	if _, ok := jl.live[hash]; !ok {
		jl.order = append(jl.order, hash)
	}
	jl.live[hash] = journalLive{Spec: spec, Trace: trace}
	jl.liveN.Store(int64(len(jl.live)))
	return nil
}

// Has reports whether hash has a live accept record.
func (jl *Journal) Has(hash string) bool {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	_, ok := jl.live[hash]
	return ok
}

// Commit durably marks an accepted job resolved. Committing a hash
// with no live accept is a no-op (the accept may have been suppressed
// while degraded).
func (jl *Journal) Commit(hash string) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, ok := jl.live[hash]; !ok {
		return nil
	}
	if err := jl.append(journalRecord{Op: "commit", Hash: hash}); err != nil {
		return err
	}
	jl.committed.Add(1)
	delete(jl.live, hash)
	jl.dropOrder(hash)
	jl.liveN.Store(int64(len(jl.live)))
	return nil
}

// Compact rewrites the WAL to hold only the live accept records,
// dropping the resolved history. Crash-atomic: the new WAL is written
// beside the old and renamed over it (both fsynced), and the append
// handle is re-pointed at the new file. Called after startup replay
// and at the end of a graceful drain.
func (jl *Journal) Compact() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	var buf bytes.Buffer
	for _, h := range jl.order {
		rec := jl.live[h]
		line, err := (journalRecord{Op: "accept", Hash: h, Spec: &rec.Spec, Trace: rec.Trace}).sealed()
		if err != nil {
			return fmt.Errorf("journal: encoding live record: %w", err)
		}
		buf.Write(line)
	}
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
	if err := faultfs.WriteFileSync(jl.fs, jl.path, buf.Bytes()); err != nil {
		// Reopen the old handle so the journal keeps appending even if
		// compaction failed; the uncompacted WAL is still correct.
		if f, ferr := jl.fs.OpenAppend(jl.path); ferr == nil {
			jl.f = f
		}
		return fmt.Errorf("journal: compacting: %w", err)
	}
	f, err := jl.fs.OpenAppend(jl.path)
	if err != nil {
		return fmt.Errorf("journal: reopening after compact: %w", err)
	}
	jl.f = f
	return nil
}

// Live returns the current accepted-but-unresolved count. Lock-free:
// it reads the atomic mirror, so metric scrapes never queue behind an
// in-flight fsync.
func (jl *Journal) Live() int {
	return int(jl.liveN.Load())
}

// Counters snapshots the append/commit/torn counters (atomic loads).
func (jl *Journal) Counters() (appended, committed, torn uint64) {
	return jl.appended.Load(), jl.committed.Load(), jl.torn.Load()
}

// Close releases the append handle. Appends after Close error.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
