package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of utime/stime in /proc/<pid>/stat. Linux fixes
// it at 100 for the /proc ABI regardless of the kernel's own HZ.
const userHZ = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name (field 2) may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command-name terminator in %q", stat)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return ticks, nil
}

// parseStatusKB returns the value of a "Key:   N kB" line from the
// contents of /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// procCPU is the user+system CPU time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(b))
	return time.Duration(ticks) * time.Second / userHZ, err
}

// procHWM is process pid's peak resident set size (VmHWM) in KiB.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}
