package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostJiffies reads the aggregate cpu line of /proc/stat: the steal
// column (time the hypervisor ran someone else while this guest was
// runnable) and the sum of all columns. Both are 0 where /proc/stat is
// missing.
func hostJiffies() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest columns
	// are already inside user/nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc is missing.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// hostSample is one reading of the clocks a pass is charged against.
type hostSample struct {
	at           time.Time
	cpu          float64
	steal, total uint64
}

func sampleHost() hostSample {
	s, t := hostJiffies()
	return hostSample{at: time.Now(), cpu: cpuSeconds(), steal: s, total: t}
}

// hostDelta is what a stretch of the run cost: wall and process CPU
// seconds, and the share of host CPU time stolen by the hypervisor
// while it ran.
type hostDelta struct {
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Steal float64 `json:"steal_frac"`
}

func (a hostSample) until(b hostSample) hostDelta {
	d := hostDelta{Wall: b.at.Sub(a.at).Seconds(), CPU: b.cpu - a.cpu}
	if b.total > a.total {
		d.Steal = float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	return d
}
