package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between closest ranks. It sorts a copy; an empty input yields NaN.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// tailPercentile returns the highest of a fixed ladder of percentiles that
// still has at least ten samples beyond it, and its value. With fewer than
// eleven samples no percentile qualifies and the maximum is returned as
// percentile 100.
func tailPercentile(vs []float64) (pct, v float64) {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 75, 50} {
		if float64(len(vs))*(1-p/100) >= 10 {
			return p, quantile(vs, p/100)
		}
	}
	return 100, quantile(vs, 1)
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatus reads one "Key:   N kB" line of /proc/<pid>/status and
// returns it in MiB (pid 0 means this process).
func procStatus(pid int, key string) (float64, bool) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0, false
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// clockTick is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time of another process from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, false
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis are fixed: utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, false
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return time.Duration(ut+st) * time.Second / clockTick, true
}
