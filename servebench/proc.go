package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Linux /proc readers. CPU times in /proc/<pid>/stat and /proc/stat
// are in clock ticks; USER_HZ is 100 on every Linux architecture Go
// supports, so one tick is 10 ms.
const tickSeconds = 0.01

// parseProcStat returns utime+stime (fields 14 and 15, in ticks) from
// the contents of /proc/<pid>/stat. The command name (field 2) is
// parenthesised and may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(b []byte) (uint64, error) {
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ")": state(3) ppid(4) ... utime(14) stime(15).
	f := strings.Fields(string(b[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns a "Key:  123 kB" value from /proc/<pid>/status.
func parseStatusKB(b []byte, key string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// parseStealTicks returns the machine-wide steal time (the 8th value
// of the aggregate "cpu" line) from the contents of /proc/stat.
func parseStealTicks(b []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, nil // kernels before 2.6.11 report no steal
		}
		return strconv.ParseUint(f[8], 10, 64)
	}
	return 0, fmt.Errorf("proc stat: no aggregate cpu line")
}

// parseSchedstat returns the on-CPU nanoseconds (the first field) from
// the contents of /proc/<pid>/task/<tid>/schedstat.
func parseSchedstat(b []byte) (uint64, error) {
	f := strings.Fields(string(b))
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	return strconv.ParseUint(f[0], 10, 64)
}

// procCPUNanos sums the on-CPU time of every thread of pid, in
// nanoseconds: unlike the 10 ms ticks of /proc/<pid>/stat, it resolves
// a start-up that takes a few milliseconds.
func procCPUNanos(pid string) (uint64, error) {
	tasks, err := os.ReadDir("/proc/" + pid + "/task")
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, t := range tasks {
		b, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the directory was read
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return sum, nil
}

func procCPUTicks(pid string) (uint64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

func procHWMKB(pid string) (uint64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

func stealTicks() (uint64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseStealTicks(b)
}

// cpuTicks sums utime+stime over the given pids ("self" names the
// benchmark's own process).
func cpuTicks(pids []string) (uint64, error) {
	var sum uint64
	for _, p := range pids {
		t, err := procCPUTicks(p)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}
