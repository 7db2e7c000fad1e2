package main

import (
	"fmt"
	"os"
	"strings"
)

// cpuTimes is the aggregate line of /proc/stat: total jiffies and the
// steal share.
type cpuTimes struct{ total, steal float64 }

func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		var v float64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the steal percentage since t was read (0 where /proc/stat
// is unavailable).
func (t cpuTimes) since() float64 {
	now := readCPU()
	return 100 * ratio(now.steal-t.steal, now.total-t.total)
}
