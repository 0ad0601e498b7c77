package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colt/internal/fault"
	"colt/internal/server/faultfs"
)

func openTestJournal(t *testing.T, dir string) (*Journal, []journalLive) {
	t.Helper()
	jl, live, err := openJournal(faultfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl, live
}

// TestJournalAcceptCommitReplay: accepts without commits are exactly
// what a reopen replays, in first-accept order; committed jobs are
// gone.
func TestJournalAcceptCommitReplay(t *testing.T) {
	dir := t.TempDir()
	jl, live := openTestJournal(t, dir)
	if len(live) != 0 {
		t.Fatalf("fresh journal replays %d specs", len(live))
	}
	specs := []Spec{
		{Experiment: "stub", Seed: 1},
		{Experiment: "stub", Seed: 2},
		{Experiment: "stub", Seed: 3},
	}
	for i, sp := range specs {
		if err := jl.Accept(hashFor(t, i), sp, "tracetest-0000"); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Commit(hashFor(t, 1)); err != nil { // resolve the middle one
		t.Fatal(err)
	}
	if jl.Live() != 2 {
		t.Fatalf("live = %d, want 2", jl.Live())
	}
	jl.Close()

	_, replay := openTestJournal(t, dir)
	if len(replay) != 2 {
		t.Fatalf("replayed %d specs, want 2", len(replay))
	}
	if replay[0].Spec.Seed != 1 || replay[1].Spec.Seed != 3 {
		t.Fatalf("replay order/content wrong: %+v", replay)
	}
}

func hashFor(t *testing.T, i int) string {
	t.Helper()
	return strings.Repeat("0", 63) + string(rune('a'+i))
}

// TestJournalTornFinalRecordSkipped is the satellite's core claim: a
// final record truncated mid-write (the crash signature) is skipped
// with a counted warning, never a startup failure, and every record
// before it replays.
func TestJournalTornFinalRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openTestJournal(t, dir)
	if err := jl.Accept(hashFor(t, 0), Spec{Experiment: "stub", Seed: 7}, "tracetest-0000"); err != nil {
		t.Fatal(err)
	}
	if err := jl.Accept(hashFor(t, 1), Spec{Experiment: "stub", Seed: 8}, "tracetest-0000"); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	// Tear the last record: truncate the file mid-line.
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	jl2, replay := openTestJournal(t, dir)
	if len(replay) != 1 || replay[0].Spec.Seed != 7 {
		t.Fatalf("replay after torn tail = %+v, want just seed 7", replay)
	}
	if _, _, torn := jl2.Counters(); torn != 1 {
		t.Fatalf("torn counter = %d, want 1", torn)
	}
}

// TestJournalCorruptMiddleRecordSkipped: a bit-flipped record in the
// middle of the WAL fails its checksum and is skipped; its neighbors
// replay.
func TestJournalCorruptMiddleRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openTestJournal(t, dir)
	for i := 0; i < 3; i++ {
		if err := jl.Accept(hashFor(t, i), Spec{Experiment: "stub", Seed: uint64(i + 1)}, "tracetest-0000"); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	path := filepath.Join(dir, journalFile)
	raw, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(raw), "\n")
	lines[1] = strings.Replace(lines[1], `"seed":2`, `"seed":9`, 1) // checksum now wrong
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	jl2, replay := openTestJournal(t, dir)
	if len(replay) != 2 || replay[0].Spec.Seed != 1 || replay[1].Spec.Seed != 3 {
		t.Fatalf("replay = %+v, want seeds 1 and 3", replay)
	}
	if _, _, torn := jl2.Counters(); torn != 1 {
		t.Fatalf("torn counter = %d, want 1", torn)
	}
}

// TestJournalDuplicateAcceptsCollapse: a replayed spec re-accepts
// itself under the same hash; the live set holds it once.
func TestJournalDuplicateAcceptsCollapse(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openTestJournal(t, dir)
	sp := Spec{Experiment: "stub", Seed: 4}
	for i := 0; i < 3; i++ {
		if err := jl.Accept(hashFor(t, 0), sp, "tracetest-0000"); err != nil {
			t.Fatal(err)
		}
	}
	if jl.Live() != 1 {
		t.Fatalf("live = %d, want 1 after duplicate accepts", jl.Live())
	}
	jl.Close()
	_, replay := openTestJournal(t, dir)
	if len(replay) != 1 {
		t.Fatalf("replayed %d, want 1", len(replay))
	}
}

// TestJournalCompact: compaction rewrites the WAL to the live set
// only; a reopen after compaction replays the same jobs from a much
// smaller file, and commits against the compacted file still work.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	jl, _ := openTestJournal(t, dir)
	for i := 0; i < 4; i++ {
		if err := jl.Accept(hashFor(t, i), Spec{Experiment: "stub", Seed: uint64(i)}, "tracetest-0000"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := jl.Commit(hashFor(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, journalFile))
	if after.Size() >= before.Size() {
		t.Fatalf("compact did not shrink the WAL: %d -> %d", before.Size(), after.Size())
	}
	// The surviving record commits against the reopened handle.
	if err := jl.Commit(hashFor(t, 3)); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	_, replay := openTestJournal(t, dir)
	if len(replay) != 0 {
		t.Fatalf("replayed %d specs after full resolution, want 0", len(replay))
	}
}

// TestJournalFsyncFaultSurfaces: with the fsync-fail site armed, an
// Accept reports the injected error — proving the append path really
// fsyncs (remove the Sync call and this test fails).
func TestJournalFsyncFaultSurfaces(t *testing.T) {
	dir := t.TempDir()
	plane := faultfs.NewPlane(fault.Spec{Rates: map[fault.Site]float64{faultfs.OpFsync: 1}}, 3)
	jl, _, err := openJournal(faultfs.Faulty(faultfs.OS(), plane), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	err = jl.Accept(hashFor(t, 0), Spec{Experiment: "stub"}, "tracetest-0000")
	if err == nil || !fault.IsInjected(err) {
		t.Fatalf("Accept under fsync-fail = %v, want injected error", err)
	}
	if plane.InjectedTotal() == 0 {
		t.Fatal("fsync site never fired: the journal append is not syncing")
	}
}
