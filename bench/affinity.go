package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. On a small box the scheduler's choice of which threads
// share a core decides whether the daemon's apply loop runs alone or is
// time-sliced against the generator's spin-waits, and that choice sticks for
// a whole run: the same code then measures 30–50 % apart from run to run.
// The benchmark therefore gives the generator the first CPU it is allowed to
// use and the daemons all the others, as long as there are at least two.
// (sched_setaffinity is called directly: the module imports only the
// standard library, which has no wrapper for it.)

type cpuSet [16]uint64 // 1024 CPUs

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var cpus []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// affinity returns the CPUs thread tid may run on (0 is the calling thread).
func affinity(tid int) (cpuSet, error) {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return set, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return set, nil
}

func setAffinity(tid int, set cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// placement is the split of the allowed CPUs between generator and daemons.
type placement struct {
	all, generator, daemons cpuSet
	split                   bool // false on a one-CPU box: nothing is pinned
	maxProcs                int  // GOMAXPROCS before pinGenerator
}

func newPlacement() (*placement, error) {
	all, err := affinity(0)
	if err != nil {
		return nil, err
	}
	p := &placement{all: all, generator: all, daemons: all}
	if cpus := all.list(); len(cpus) >= 2 {
		p.split = true
		p.generator, p.daemons = cpuSet{}, cpuSet{}
		p.generator.add(cpus[0])
		for _, cpu := range cpus[1:] {
			p.daemons.add(cpu)
		}
	}
	return p, nil
}

// setAllThreads applies set to every thread of this process; threads created
// later inherit it from their creator.
func setAllThreads(set cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the directory was read is not an error.
		if err := setAffinity(tid, set); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// pinGenerator confines the generator to its CPU for the daemon phases. With
// one CPU the writer and the reader must interleave cooperatively (their
// spin-waits yield on every iteration), so GOMAXPROCS drops to 1 as well:
// two threads time-sliced by the kernel would wait a scheduler tick for each
// other.
func (p *placement) pinGenerator() error {
	if !p.split {
		return nil
	}
	p.maxProcs = runtime.GOMAXPROCS(1)
	return setAllThreads(p.generator)
}

// unpinGenerator gives the process all its CPUs back for the in-process
// passes, which run once the daemons have stopped.
func (p *placement) unpinGenerator() error {
	if !p.split {
		return nil
	}
	runtime.GOMAXPROCS(p.maxProcs)
	return setAllThreads(p.all)
}

// startOnDaemonCPUs runs start — which forks a daemon — on a thread that is
// confined to the daemons' CPUs for the duration, so that the child inherits
// that confinement.
func (p *placement) startOnDaemonCPUs(start func() error) error {
	if !p.split {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.daemons); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, p.generator); err == nil {
		err = rerr
	}
	return err
}
