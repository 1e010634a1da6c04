// Package hostprof gives the commands their -cpuprofile and -memprofile
// flags: profiles of the simulator itself, on the host, as opposed to
// anything the simulated machines report. Any study can be profiled without
// editing code:
//
//	hdcbench -exp member-scaling -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
package hostprof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the profiles named by the two paths (either may be empty)
// and returns the function that finishes them: it stops the CPU profile and
// writes the allocation profile as of that moment. Both files are created
// here, before the caller's work starts, so an unwritable path fails in a
// second and not after a study that took an hour. Stop is safe to call more
// than once; only the first call does anything.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				cpu.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				first = fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem != nil {
			runtime.GC() // so the profile's in-use numbers are live objects only
			err := pprof.Lookup("allocs").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = fmt.Errorf("-memprofile: %w", err)
			}
		}
		return first
	}, nil
}
