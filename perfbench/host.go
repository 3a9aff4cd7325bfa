package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host fingerprints the machine a result was measured on, so a number
// from another machine is never read as a baseline.
type host struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibMS    float64 `json:"calib_ms"`
}

func fingerprint() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibMS:    calibrate(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; other systems
// report "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibSink keeps the calibration kernel's result live.
var calibSink float64

// calibrate times a fixed kernel that uses none of the repository's code:
// a dependent floating-point recurrence plus a strided sweep over a 4 MiB
// array. It returns the median of five runs in milliseconds. Its value
// moves only with the machine, never with a change to the program.
func calibrate() float64 {
	buf := make([]float64, 1<<19)
	for i := range buf {
		buf[i] = float64(i%97) * 0.5
	}
	return 1e3 * medianOf(5, func() float64 {
		return seconds(func() {
			x := 1.0
			for i := 0; i < 4_000_000; i++ {
				x = x*0.999999 + 1e-7*float64(i&1023)
			}
			s := 0.0
			for pass := 0; pass < 8; pass++ {
				for i := pass; i < len(buf); i += 8 {
					s += math.Sqrt(buf[i])
				}
			}
			calibSink = x + s
		})
	})
}

// peakRSSMB returns the process's peak resident set size in MB (on Linux
// Maxrss is in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
