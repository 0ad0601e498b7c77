package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colt/internal/fault"
)

// TestParseSpec: -disk-faults values parse through the fault core
// against Ops(), with every disk site name accepted.
func TestParseSpec(t *testing.T) {
	spec, err := fault.Parse("write-fail=0.5, fsync-fail=1", Ops())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rates[OpWrite] != 0.5 || spec.Rates[OpFsync] != 1 {
		t.Fatalf("parsed rates %+v", spec.Rates)
	}
	if !spec.Enabled() {
		t.Fatal("non-zero spec reports disabled")
	}
	if got := spec.String(); got != "fsync-fail=1,write-fail=0.5" {
		t.Fatalf("String() = %q, want canonical sorted form", got)
	}

	all, err := fault.Parse("all=0.25", Ops())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range Ops() {
		if all.Rates[op] != 0.25 {
			t.Fatalf("all=0.25 left %s at %g", op, all.Rates[op])
		}
	}

	if s, err := fault.Parse("", Ops()); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"nope=1", "write-fail=2", "write-fail=NaN", "write-fail", "write-fail=x", ",", "buddy-alloc=0.5"} {
		if _, err := fault.Parse(bad, Ops()); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		} else if bad == "nope=1" && !strings.Contains(err.Error(), "write-fail") {
			t.Fatalf("unknown-op error %q does not list the valid set", err)
		}
	}
}

// TestPlaneDeterminism: the per-op fire sequence is a pure function
// of (seed, op, crossing index) — two planes with the same seed agree
// crossing by crossing, and enabling extra ops never perturbs it.
func TestPlaneDeterminism(t *testing.T) {
	spec := fault.Spec{Rates: map[fault.Site]float64{OpWrite: 0.3}}
	wide := fault.Spec{Rates: map[fault.Site]float64{OpWrite: 0.3, OpRename: 0.9, OpFsync: 0.9}}
	a := NewPlane(spec, 42)
	b := NewPlane(spec, 42)
	c := NewPlane(wide, 42)
	for i := 0; i < 1000; i++ {
		ea, eb, ec := a.fail(OpWrite), b.fail(OpWrite), c.fail(OpWrite)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("crossing %d: same-seed planes disagree", i)
		}
		if (ea == nil) != (ec == nil) {
			t.Fatalf("crossing %d: enabling other ops perturbed write-fail", i)
		}
	}
	// Only write-fail was crossed, so every plane's total is its
	// write-fail count.
	if a.InjectedTotal() == 0 || a.InjectedTotal() != c.InjectedTotal() {
		t.Fatalf("injected counts diverge: %d vs %d", a.InjectedTotal(), c.InjectedTotal())
	}
}

func TestNilPlaneInjectsNothing(t *testing.T) {
	var p *Plane
	if err := p.fail(OpWrite); err != nil {
		t.Fatal("nil plane injected")
	}
	if p.InjectedTotal() != 0 {
		t.Fatal("nil plane reports activity")
	}
	if NewPlane(fault.Spec{}, 1) != nil {
		t.Fatal("empty spec built a plane")
	}
	if fs := Faulty(OS(), nil); fs != OS() {
		t.Fatal("Faulty(nil plane) did not pass the FS through")
	}
}

func TestWriteFileSyncRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	want := []byte(`{"a":1}`)
	if err := WriteFileSync(OS(), path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(want) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	// Overwrite is atomic too.
	want2 := []byte(`{"a":2}`)
	if err := WriteFileSync(OS(), path, want2); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(want2) {
		t.Fatalf("overwrite read back %q", got)
	}
}

// TestWriteFileSyncFaults: each injection site fails the atomic write
// with an identifiable injected error and leaves the destination
// untouched.
func TestWriteFileSyncFaults(t *testing.T) {
	for _, op := range []fault.Site{OpWrite, OpShortWrite, OpRename, OpFsync} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "x.json")
			if err := WriteFileSync(OS(), path, []byte("orig")); err != nil {
				t.Fatal(err)
			}
			plane := NewPlane(fault.Spec{Rates: map[fault.Site]float64{op: 1}}, 7)
			fs := Faulty(OS(), plane)
			err := WriteFileSync(fs, path, []byte("new"))
			if err == nil || !fault.IsInjected(err) {
				t.Fatalf("err = %v, want injected %s", err, op)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Site != op {
				t.Fatalf("err = %v, want op %s", err, op)
			}
			if got, _ := os.ReadFile(path); string(got) != "orig" {
				t.Fatalf("destination changed to %q under injected %s", got, op)
			}
			if plane.InjectedTotal() == 0 {
				t.Fatalf("plane counted no %s injection", op)
			}
		})
	}
}

// TestShortWriteTearsTheFile: the short-write site leaves half the
// buffer on disk — the torn state a crash mid-write produces — and
// surfaces an error so the caller never renames it into place.
func TestShortWriteTearsTheFile(t *testing.T) {
	dir := t.TempDir()
	plane := NewPlane(fault.Spec{Rates: map[fault.Site]float64{OpShortWrite: 1}}, 1)
	fs := Faulty(OS(), plane)
	f, err := fs.Create(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, werr := f.Write(payload)
	f.Close()
	if werr == nil || !fault.IsInjected(werr) {
		t.Fatalf("short write returned %v", werr)
	}
	if n != len(payload)/2 {
		t.Fatalf("short write wrote %d bytes, want %d", n, len(payload)/2)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "torn"))
	if string(got) != "01234" {
		t.Fatalf("on-disk bytes %q, want the torn first half", got)
	}
}

func TestSlowIODelaysButSucceeds(t *testing.T) {
	dir := t.TempDir()
	plane := NewPlane(fault.Spec{Rates: map[fault.Site]float64{OpSlowIO: 1}}, 1)
	plane.SetSlowIO(0) // keep the test fast; the delay path still runs
	fs := Faulty(OS(), plane)
	if err := WriteFileSync(fs, filepath.Join(dir, "slow"), []byte("x")); err != nil {
		t.Fatalf("slow-io failed the write: %v", err)
	}
	if plane.InjectedTotal() == 0 {
		t.Fatal("slow-io never fired")
	}
}
