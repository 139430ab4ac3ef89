package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')' of its own; utime is 700
	// and stime 42 (fields 14 and 15).
	stat := "4242 (group (form) d) S 1 4242 4242 0 -1 4194304 120 0 0 0 700 42 0 0 20 0 7 0 123 456 789"
	got, err := parseStatCPU(stat)
	if err != nil || got != 742 {
		t.Fatalf("parseStatCPU = %d, %v; want 742", got, err)
	}
	for _, bad := range []string{"", "4242 groupformd S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ab 42"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tgroupformd\nVmPeak:\t  812345 kB\nVmHWM:\t   65432 kB\nVmRSS:\t   60000 kB\nThreads:\t7\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 65432 {
		t.Fatalf("VmHWM = %d, %v; want 65432", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("unexpected unit accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if kb, err := procHWM(os.Getpid()); err != nil || kb <= 0 {
		t.Errorf("procHWM(self) = %d, %v", kb, err)
	}
}

func TestParseGCTrace(t *testing.T) {
	for line, want := range map[string]int64{
		"gc 1 @0.012s 3%: 0.011+0.45+0.002 ms clock, 0.022+0.1/0.3/0+0.005 ms cpu, 4->4->0 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P": 1,
		"gc 1234 @81.517s 1%: 0.060+1.2+0.004 ms clock": 1234,
	} {
		if n, ok := parseGCTrace(line); !ok || n != want {
			t.Errorf("parseGCTrace(%q) = %d, %v; want %d", line, n, ok, want)
		}
	}
	for _, line := range []string{"groupformd: listening on http://127.0.0.1:1", "gc x @1s", "gcstoptheworld"} {
		if _, ok := parseGCTrace(line); ok {
			t.Errorf("parseGCTrace(%q) accepted a non-gctrace line", line)
		}
	}
}
