package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"github.com/cercs/iqrudp/bench/measure"
	"github.com/cercs/iqrudp/internal/uio"
)

// host is where and how a run was taken: printed with every result, because
// a number without its host is not comparable with anything.
type host struct {
	exe string

	CPUs      int
	GenProcs  int   // generator GOMAXPROCS
	SinkProcs int   // sink GOMAXPROCS
	Pinned    bool  // generator and sink taskset-pinned to disjoint CPUs
	GenCPU    int   // when Pinned
	SinkCPUs  []int // when Pinned
	Go        string
	Kernel    string
	GSO, GRO  bool // uio.ProbeOffload
	Commit    string
}

// newHost sizes the two roles to the CPUs this process may use — the
// generator gets one, the sink the rest — and pins this process to its
// share. With a single CPU (or no taskset) both roles float.
func newHost() (*host, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	off := uio.ProbeOffload()
	h := &host{
		exe:       exe,
		CPUs:      runtime.NumCPU(),
		GenProcs:  1,
		SinkProcs: 1,
		Go:        runtime.Version(),
		Kernel:    kernelRelease(),
		GSO:       off.GSO,
		GRO:       off.GRO,
		Commit:    commit(),
	}
	runtime.GOMAXPROCS(h.GenProcs)
	cpus := measure.AllowedCPUs()
	if len(cpus) < 2 {
		return h, nil
	}
	h.SinkProcs = len(cpus) - 1
	if _, err := exec.LookPath("taskset"); err != nil {
		return h, nil
	}
	// -a: every thread of this process, not only the one that asks.
	pin := exec.Command("taskset", "-a", "-cp", strconv.Itoa(cpus[0]), strconv.Itoa(os.Getpid()))
	if err := pin.Run(); err != nil {
		return h, nil // not permitted here: run unpinned and say so
	}
	h.Pinned, h.GenCPU, h.SinkCPUs = true, cpus[0], cpus[1:]
	return h, nil
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

// commit names the source the binary was built from, as run.sh found it.
// The benchmark's checkout need not be a git repository, so "unknown" is a
// normal answer.
func commit() string {
	if c := os.Getenv("IQBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func (h *host) String() string {
	pin := "unpinned"
	if h.Pinned {
		pin = fmt.Sprintf("pinned gen=cpu%d sink=cpu%s", h.GenCPU, cpuList(h.SinkCPUs))
	}
	return fmt.Sprintf("host_cpus=%d gen GOMAXPROCS=%d sink GOMAXPROCS=%d %s %s kernel=%s gso=%v gro=%v commit=%s link=%q",
		h.CPUs, h.GenProcs, h.SinkProcs, pin, h.Go, h.Kernel, h.GSO, h.GRO, h.Commit, "host loopback, not a real link")
}
