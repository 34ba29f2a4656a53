package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"postopc/internal/obs"
)

// fingerprint identifies the host and build a result was measured on.
// Results are only ever compared when their fingerprints are equal.
type fingerprint struct {
	obs.BuildInfo
	GOMAXPROCS int
	NumCPU     int
}

func hostFingerprint() fingerprint {
	bi := obs.GetBuildInfo()
	// The module version carries a build stamp that differs between
	// checkouts of the same code; the module path alone identifies it.
	if i := strings.IndexByte(bi.Module, '@'); i >= 0 {
		bi.Module = bi.Module[:i]
	}
	return fingerprint{BuildInfo: bi, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident set, so peakRSSMB reports one iteration's peak. Kernels without
// the reset leave the mark process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
