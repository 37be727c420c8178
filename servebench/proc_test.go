package main

import (
	"runtime"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses; fields count
	// from the last ')'.
	line := "4242 (tiv d) (x)) S 1 4242 4242 0 -1 4194560 1220 0 0 0 731 269 0 0 20 0 9 0 12345 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+269 {
		t.Errorf("utime+stime %d, want %d", got, 731+269)
	}
	for _, bad := range []string{"", "4242 tivd S 1", "4242 (tivd) S 1 2 3", "4242 (tivd) S 1 4242 4242 0 -1 0 0 0 0 0 x 269 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\ttivd\nVmPeak:\t  812345 kB\nVmHWM:\t   19572 kB\nVmRSS:\t   18000 kB\nThreads:\t9\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 19572 {
		t.Errorf("VmHWM %d kB, want 19572", got)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("unit other than kB accepted")
	}
}

func TestParseStealTicks(t *testing.T) {
	stat := "cpu  10 20 30 40 50 60 70 88 0 0\ncpu0 5 10 15 20 25 30 35 44 0 0\nintr 1 2 3\n"
	got, err := parseStealTicks([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 88 {
		t.Errorf("steal %d, want 88 from the aggregate line", got)
	}
	if _, err := parseStealTicks([]byte("intr 1 2 3\n")); err == nil {
		t.Error("input without a cpu line accepted")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("123456789 4567 89\n"))
	if err != nil || got != 123456789 {
		t.Errorf("on-CPU ns %d, %v; want 123456789", got, err)
	}
	if _, err := parseSchedstat([]byte("\n")); err == nil {
		t.Error("empty schedstat accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc readers are Linux-only")
	}
	if _, err := procCPUTicks("self"); err != nil {
		t.Error(err)
	}
	kb, err := procHWMKB("self")
	if err != nil || kb == 0 {
		t.Errorf("VmHWM of self: %d kB, %v", kb, err)
	}
	if _, err := stealTicks(); err != nil {
		t.Error(err)
	}
	if ns, err := procCPUNanos("self"); err != nil || ns == 0 {
		t.Errorf("on-CPU time of self: %d ns, %v", ns, err)
	}
}
