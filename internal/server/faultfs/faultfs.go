// Package faultfs is the serving layer's deterministic disk-fault
// plane: an injectable filesystem seam threaded through every durable
// write coltd performs (cache entries and their meta sidecars, the
// accepted-job journal and its compactions). The spec parsing,
// per-site rng.Stream draws, counters and injected error type are
// internal/fault's core; this package names the disk sites — write
// failures, short writes, failed renames, failed fsyncs, and slow
// I/O — and applies them to real file operations.
//
// Determinism: each site draws from its own rng.Stream(site name), so
// the per-site fire/no-fire sequence is a pure function of (seed,
// site, crossing index) — enabling one site never perturbs another,
// and a single-threaded caller replays byte-identical fault
// sequences. A nil *Plane injects nothing and is safe to use, so the
// production path (no faults configured) costs one nil check.
//
// The FS interface is deliberately tiny: the five operations coltd's
// durability paths actually perform. OS() returns the real
// filesystem; Faulty(fs, plane) wraps any FS with injection.
package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"colt/internal/fault"
)

// The disk-fault injection sites. A -disk-faults spec is parsed
// against Ops() with fault.Parse.
const (
	// OpWrite fails a file write outright: no bytes reach the file.
	OpWrite fault.Site = "write-fail"
	// OpShortWrite tears a file write: only the first half of the
	// buffer reaches the file before the error surfaces — the on-disk
	// state a crash mid-write leaves behind.
	OpShortWrite fault.Site = "short-write"
	// OpRename fails the rename that commits an atomic write; the
	// temp file is left behind and the destination is untouched.
	OpRename fault.Site = "rename-fail"
	// OpFsync fails an fsync (file or parent directory). Data may sit
	// in the page cache but durability was never promised.
	OpFsync fault.Site = "fsync-fail"
	// OpSlowIO delays a write by the plane's slow-I/O latency instead
	// of failing it — the stall that deadline propagation must absorb.
	OpSlowIO fault.Site = "slow-io"
)

// Ops lists every valid disk injection site, in display order.
func Ops() []fault.Site {
	return []fault.Site{OpWrite, OpShortWrite, OpRename, OpFsync, OpSlowIO}
}

// Plane is the disk-fault plane. Unlike the simulation plane (one
// per job, single-goroutine), it is shared by every worker and
// handler that touches the filesystem, so its draws on the core
// fault.Plane are serialized under a mutex. A nil Plane injects
// nothing and its methods are safe to call.
type Plane struct {
	mu   sync.Mutex
	core *fault.Plane
	slow time.Duration

	// injectedTotal counts every fired fault so InjectedTotal is an
	// atomic load — metric scrapes never contend with the draw mutex
	// on the durable-write path.
	injectedTotal atomic.Uint64
}

// DefaultSlowIO is the delay OpSlowIO injects when the plane was not
// given one explicitly.
const DefaultSlowIO = 5 * time.Millisecond

// NewPlane builds a plane for spec, deriving one rng stream per
// configured site from seed. Returns nil when spec injects nothing,
// so the disabled case stays allocation- and draw-free.
func NewPlane(spec fault.Spec, seed uint64) *Plane {
	core := fault.NewPlane(spec, seed)
	if core == nil {
		return nil
	}
	return &Plane{core: core, slow: DefaultSlowIO}
}

// SetSlowIO overrides the OpSlowIO delay. Safe on a nil plane.
func (p *Plane) SetSlowIO(d time.Duration) {
	if p != nil {
		p.slow = d
	}
}

// fail returns an injected *fault.Error if this crossing of op
// fires, and nil otherwise.
func (p *Plane) fail(op fault.Site) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.core.Fail(op)
	if err != nil {
		p.injectedTotal.Add(1)
	}
	return err
}

// InjectedTotal returns how many faults have fired across every op.
// Lock-free (one atomic load) so it is safe on a metrics scrape path.
func (p *Plane) InjectedTotal() uint64 {
	if p == nil {
		return 0
	}
	return p.injectedTotal.Load()
}

// File is the open-file surface the durability paths use: write,
// fsync, close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem seam. Implementations must be safe for
// concurrent use.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// Create opens name for writing, truncating it (O_CREATE|O_TRUNC).
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if needed — the
	// journal's handle.
	OpenAppend(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making a preceding rename in it
	// durable.
	SyncDir(name string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	// Fsync on a directory is not supported by every filesystem;
	// treat "not supported" as best-effort success like the major
	// databases do, but surface real errors.
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, errors.ErrUnsupported) {
		return nil
	}
	return err
}

// faulty wraps an FS with an injection plane.
type faulty struct {
	fs    FS
	plane *Plane
}

// Faulty wraps fs so that every operation consults plane. A nil plane
// returns fs unchanged.
func Faulty(fs FS, plane *Plane) FS {
	if plane == nil {
		return fs
	}
	return &faulty{fs: fs, plane: plane}
}

func (f *faulty) ReadFile(name string) ([]byte, error) { return f.fs.ReadFile(name) }

func (f *faulty) Create(name string) (File, error) {
	file, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: file, plane: f.plane}, nil
}

func (f *faulty) OpenAppend(name string) (File, error) {
	file, err := f.fs.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: file, plane: f.plane}, nil
}

func (f *faulty) Rename(oldpath, newpath string) error {
	if err := f.plane.fail(OpRename); err != nil {
		return err
	}
	return f.fs.Rename(oldpath, newpath)
}

func (f *faulty) Remove(name string) error { return f.fs.Remove(name) }

func (f *faulty) MkdirAll(name string, perm os.FileMode) error {
	return f.fs.MkdirAll(name, perm)
}

func (f *faulty) SyncDir(name string) error {
	if err := f.plane.fail(OpFsync); err != nil {
		return err
	}
	return f.fs.SyncDir(name)
}

// faultyFile injects write/sync faults on an open file.
type faultyFile struct {
	f     File
	plane *Plane
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	if err := ff.plane.fail(OpSlowIO); err != nil {
		time.Sleep(ff.plane.slow)
	}
	if err := ff.plane.fail(OpWrite); err != nil {
		return 0, err
	}
	if err := ff.plane.fail(OpShortWrite); err != nil {
		// Tear the write: half the buffer lands, then the error — the
		// on-disk state a crash mid-write leaves behind.
		n, werr := ff.f.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return ff.f.Write(p)
}

func (ff *faultyFile) Sync() error {
	if err := ff.plane.fail(OpFsync); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultyFile) Close() error { return ff.f.Close() }

// WriteFileSync writes data to name crash-atomically and durably:
// temp file in the same directory, write, fsync the file, close,
// rename over name, fsync the parent directory. On any failure the
// destination is untouched (the temp file is removed best-effort).
// Rename-without-fsync is NOT crash-atomic — a power cut can leave a
// zero-length or torn destination — which is why every step here
// syncs before the next depends on it.
func WriteFileSync(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(name))
}
