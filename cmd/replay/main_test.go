package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colt/internal/arch"
	"colt/internal/experiments"
	"colt/internal/trace"
)

func TestParsePolicies(t *testing.T) {
	t.Run("valid list with whitespace", func(t *testing.T) {
		got, err := parsePolicies(" baseline , colt-sa,colt-all ")
		if err != nil {
			t.Fatalf("parsePolicies: %v", err)
		}
		want := []string{"baseline", "colt-sa", "colt-all"}
		if len(got) != len(want) {
			t.Fatalf("parsePolicies = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parsePolicies = %v, want %v", got, want)
			}
		}
	})
	t.Run("every documented policy parses", func(t *testing.T) {
		if _, err := parsePolicies(strings.Join(experiments.PolicyNames(), ",")); err != nil {
			t.Fatalf("parsePolicies(all): %v", err)
		}
	})
	t.Run("unknown policy names the valid set", func(t *testing.T) {
		_, err := parsePolicies("baseline,colt-xl")
		if err == nil {
			t.Fatal("unknown policy accepted")
		}
		msg := err.Error()
		if !strings.Contains(msg, `"colt-xl"`) {
			t.Errorf("error %q does not quote the bad policy", msg)
		}
		for _, want := range experiments.PolicyNames() {
			if !strings.Contains(msg, want) {
				t.Errorf("error %q does not list valid policy %q", msg, want)
			}
		}
	})
	t.Run("empty entry rejected", func(t *testing.T) {
		for _, in := range []string{"", "baseline,,colt-sa", "baseline,"} {
			if _, err := parsePolicies(in); err == nil {
				t.Errorf("parsePolicies(%q) accepted an empty entry", in)
			}
		}
	})
	t.Run("duplicate rejected even with whitespace", func(t *testing.T) {
		_, err := parsePolicies("baseline, baseline")
		if err == nil {
			t.Fatal("duplicate policy accepted")
		}
		if !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("error %q does not mention the duplicate", err)
		}
	})
}

// writeTrace writes a small valid trace file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	var tr trace.Trace
	for i := 0; i < 64; i++ {
		tr.Append(trace.Record{VAddr: arch.VAddr(i * 4096), InstGap: 3})
	}
	path := filepath.Join(t.TempDir(), "replay.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReplaysTrace(t *testing.T) {
	path := writeTrace(t)
	if err := run(path, 16, []string{"baseline", "colt-all"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadContig(t *testing.T) {
	path := writeTrace(t)
	for _, contig := range []int{0, -1} {
		err := run(path, contig, []string{"baseline"})
		if err == nil {
			t.Errorf("run with contig=%d succeeded", contig)
			continue
		}
		if !strings.Contains(err.Error(), "contiguity") {
			t.Errorf("contig=%d error %q does not mention contiguity", contig, err)
		}
	}
}

func TestRunMissingTraceError(t *testing.T) {
	err := run(filepath.Join(t.TempDir(), "absent.trace"), 16, []string{"baseline"})
	if err == nil {
		t.Fatal("run with missing trace succeeded")
	}
	if !strings.Contains(err.Error(), "opening trace") {
		t.Errorf("error %q does not say the trace failed to open", err)
	}
}

func TestRunCorruptTraceError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("NOTATRACE"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(path, 16, []string{"baseline"})
	if err == nil {
		t.Fatal("run with corrupt trace succeeded")
	}
	if !strings.Contains(err.Error(), "reading trace") {
		t.Errorf("error %q does not say the trace failed to parse", err)
	}
}
