// Package vm is the operating-system layer of the simulator: processes,
// virtual address spaces, malloc/free with transparent-hugepage and
// batched buddy allocation, the memhog fragmentation utility, and the
// glue that lets the compaction daemon migrate pages (rehoming page
// tables and raising TLB shootdowns). Together with package mm it
// reproduces the memory-management behaviour whose contiguity the paper
// characterizes in §3 and §6.
package vm

import (
	"fmt"

	"colt/internal/arch"
	"colt/internal/mm"
	"colt/internal/pagetable"
)

// Config describes one simulated system configuration — the knobs the
// paper sweeps in §5.1.1 (THS on/off, memory compaction normal/low)
// plus the machine size.
type Config struct {
	// Frames is physical memory size in 4 KB frames.
	Frames int
	// THP enables transparent hugepage support ("THS on").
	THP bool
	// Compaction selects the daemon's eagerness (the defrag flag).
	Compaction mm.CompactionMode
}

// ShootdownHandler observes TLB shootdowns (unmap, remap, migration,
// hugepage split). The TLB simulator registers one so stale entries are
// flushed exactly when a real kernel would flush them.
type ShootdownHandler interface {
	Shootdown(pid int, vpn arch.VPN)
}

// Reclaimer frees up to n pages of its owner's memory when the system
// is under OOM pressure, returning how many pages it released (modeling
// swap-out of cold pages). Memhog registers one.
type Reclaimer func(n int) int

// System owns physical memory and the set of processes.
type System struct {
	cfg       Config
	Phys      *mm.PhysMem
	Buddy     *mm.Buddy
	Compactor *mm.Compactor
	THP       *mm.THP

	procs       map[int]*Process
	procOrder   []int
	nextPID     int
	handlers    []ShootdownHandler
	reclaimers  []Reclaimer
	background  []func()
	opCount     uint64
	reclaiming  bool
	inTick      bool
	reclaimNext int
	majorFaults uint64
}

// MajorFaults counts swap-ins performed by EnsureResident.
func (s *System) MajorFaults() uint64 { return s.majorFaults }

// backgroundPeriod: how many allocation operations between background
// daemon ticks (compaction and THP pressure splitting).
const backgroundPeriod = 16

// NewSystem boots a system with the given configuration.
func NewSystem(cfg Config) *System {
	if cfg.Frames <= 0 {
		panic("vm: system needs physical frames")
	}
	phys := mm.NewPhysMem(cfg.Frames)
	buddy := mm.NewBuddy(phys)
	s := &System{
		cfg:     cfg,
		Phys:    phys,
		Buddy:   buddy,
		procs:   make(map[int]*Process),
		nextPID: mm.KernelPID + 1,
	}
	s.Compactor = mm.NewCompactor(phys, buddy, s, cfg.Compaction)
	s.THP = mm.NewTHP(phys, buddy, s.Compactor, cfg.THP)
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// AddShootdownHandler subscribes a TLB to shootdown events.
func (s *System) AddShootdownHandler(h ShootdownHandler) {
	s.handlers = append(s.handlers, h)
}

// AddReclaimer registers an OOM-pressure reclaimer.
func (s *System) AddReclaimer(r Reclaimer) {
	s.reclaimers = append(s.reclaimers, r)
}

// AddBackgroundWork registers a function run on background ticks —
// concurrent system activity such as memhog's paced growth.
func (s *System) AddBackgroundWork(fn func()) {
	s.background = append(s.background, fn)
}

func (s *System) shootdown(pid int, vpn arch.VPN) {
	for _, h := range s.handlers {
		h.Shootdown(pid, vpn)
	}
}

// MigratePage implements mm.Migrator: the compaction daemon moved the
// frame backing (owner.PID, owner.VPN); rehome the page table and shoot
// down stale TLB entries. On error the compactor rolls the migration
// back, so the page table and frame metadata stay consistent.
func (s *System) MigratePage(owner mm.PageOwner, from, to arch.PFN) error {
	proc, ok := s.procs[owner.PID]
	if !ok {
		return fmt.Errorf("vm: migration for unknown pid %d", owner.PID)
	}
	if err := proc.Table.Remap(owner.VPN, to); err != nil {
		return fmt.Errorf("vm: migration remap pid %d vpn %d: %w", owner.PID, owner.VPN, err)
	}
	s.shootdown(owner.PID, owner.VPN)
	return nil
}

// NewProcess creates a process with an empty address space.
func (s *System) NewProcess() (*Process, error) {
	pid := s.nextPID
	s.nextPID++
	table, err := pagetable.New(&kernelFrames{sys: s})
	if err != nil {
		return nil, fmt.Errorf("vm: creating page table: %w", err)
	}
	p := &Process{
		PID:     pid,
		sys:     s,
		Table:   table,
		regions: make(map[int]*Region),
		nextVPN: heapBase,
	}
	s.procs[pid] = p
	s.procOrder = append(s.procOrder, pid)
	return p, nil
}

// Process returns the process with the given PID, or nil.
func (s *System) Process(pid int) *Process { return s.procs[pid] }

// Processes returns all live processes in creation order.
func (s *System) Processes() []*Process {
	out := make([]*Process, 0, len(s.procOrder))
	for _, pid := range s.procOrder {
		if p, ok := s.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// tick advances the background daemons every few allocation operations,
// the way kcompactd and khugepaged piggyback on system activity. Ticks
// are suppressed while OOM reclaim is in progress: the daemons' own
// allocations (e.g. the table frame a hugepage split needs) must not
// recurse into reclaim.
func (s *System) tick() {
	if s.reclaiming || s.inTick {
		return
	}
	s.inTick = true
	defer func() { s.inTick = false }()
	for _, fn := range s.background {
		fn()
	}
	s.opCount++
	if s.opCount%backgroundPeriod != 0 {
		return
	}
	s.Compactor.BackgroundTick()
	s.THP.MaybeSplit(s.splitHugeMapping)
}

// Idle advances simulated wall-clock time without new foreground work:
// background daemons and registered system activity (memhog's touch
// loop, compaction, THP pressure splitting) run for the given number of
// scheduling slots. Experiments use this to reach the steady state the
// paper's periodic page-table scans observe.
func (s *System) Idle(slots int) {
	for i := 0; i < slots; i++ {
		s.tick()
	}
}

// splitHugeMapping demotes one transparent hugepage to base pages,
// reporting false if the split could not obtain its table frame.
func (s *System) splitHugeMapping(h mm.HugeAlloc) bool {
	proc, ok := s.procs[h.PID]
	if !ok {
		return true // owner exited; nothing to rewrite
	}
	return proc.splitHugeAt(h.BaseVPN) == nil
}

// allocPage services one demand page fault: an order-0 buddy
// allocation. Order-0 requests never trigger direct compaction (they
// cannot fail on fragmentation); under true OOM the system asks
// reclaimers to release memory, modeling swap-out. Consecutive faults
// naturally receive consecutive frames while the buddy drains a split
// block — the contiguity source of paper §3.2.1.
func (s *System) allocPage() (arch.PFN, error) {
	pfn, err := s.Buddy.AllocBlock(0)
	if err == mm.ErrOutOfMemory && s.reclaim(1) {
		pfn, err = s.Buddy.AllocBlock(0)
	}
	return pfn, err
}

// reclaim asks registered reclaimers to free at least n pages; returns
// true if any memory was released. Re-entrant calls (a reclaimer's own
// bookkeeping allocating memory) are refused.
func (s *System) reclaim(n int) bool {
	if s.reclaiming {
		return false
	}
	s.reclaiming = true
	defer func() { s.reclaiming = false }()
	freed := 0
	// Round-robin across victims so no single process absorbs all the
	// eviction pressure (global LRU approximation).
	for i := 0; i < len(s.reclaimers) && freed < 2*n; i++ {
		r := s.reclaimers[(s.reclaimNext+i)%len(s.reclaimers)]
		freed += r(2 * n)
	}
	if len(s.reclaimers) > 0 {
		s.reclaimNext = (s.reclaimNext + 1) % len(s.reclaimers)
	}
	return freed > 0
}

// kernelFrames adapts the buddy allocator as a page-table frame source:
// table frames are kernel-owned and pinned (unmovable), which is why
// compaction cannot defragment around them (§3.2.2).
type kernelFrames struct{ sys *System }

func (k *kernelFrames) AllocFrame() (arch.PFN, error) {
	pfn, err := k.sys.allocPage()
	if err != nil {
		return 0, err
	}
	k.sys.Phys.SetOwner(pfn, mm.PageOwner{PID: mm.KernelPID}, false)
	return pfn, nil
}

func (k *kernelFrames) FreeFrame(pfn arch.PFN) {
	k.sys.Buddy.FreeRange(pfn, 1)
}
