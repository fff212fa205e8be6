package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// fingerprint identifies the host a run measured. Two runs are comparable
// only on the same CPU model, core count, GOMAXPROCS and Go version, with
// calibration loops within calibrationTolerance of each other: a figure
// recorded on one machine is not a baseline for another.
type fingerprint struct {
	CPUModel      string `json:"cpu_model"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	CalibrationNs int64  `json:"calibration_ns"`
}

// calibrationTolerance is how far apart two hosts' calibration loops may be
// and still count as the same machine (the loop itself varies a few percent
// from run to run).
const calibrationTolerance = 0.20

func hostFingerprint() fingerprint {
	return fingerprint{
		CPUModel:      cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CalibrationNs: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

var calibrationSink uint64

// calibrate times a fixed integer loop (the best of five), a CPU-speed
// figure that does not depend on the code under test.
func calibrate() int64 {
	best := int64(-1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 5_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrationSink += x
		if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
			best = ns
		}
	}
	return best
}

// sameHost reports why two fingerprints are not comparable, or "" when they
// are.
func sameHost(a, b fingerprint) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion)
	}
	lo, hi := min(a.CalibrationNs, b.CalibrationNs), max(a.CalibrationNs, b.CalibrationNs)
	if lo <= 0 || float64(hi-lo) > calibrationTolerance*float64(lo) {
		return fmt.Sprintf("calibration %d ns vs %d ns", a.CalibrationNs, b.CalibrationNs)
	}
	return ""
}

// compareMain diffs the end-to-end metrics of two run records: B minus A,
// absolute and relative. With A an untraced run and B the traced run of the
// same workload and seed, the difference is the tracing overhead. It refuses
// records from different hosts.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var runs [2]run
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &runs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	a, b := runs[0], runs[1]
	if why := sameHost(a.Fingerprint, b.Fingerprint); why != "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing to compare runs from different hosts:", why)
		return 3
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(os.Stderr, "perfbench compare: workloads differ: %s vs %s\n", a.Workload, b.Workload)
		return 2
	}
	fmt.Fprintf(w, "%s: A=seed %d trace %v, B=seed %d trace %v\n", a.Workload, a.Seed, a.Trace, b.Seed, b.Trace)
	fmt.Fprintf(w, "%-16s %14s %14s %14s %9s\n", "metric", "A", "B", "B-A", "B/A-1")
	for _, m := range endToEnd {
		va, vb := a.EndToEnd[m.name].Value, b.EndToEnd[m.name].Value
		rel := 0.0
		if va != 0 {
			rel = vb/va - 1
		}
		fmt.Fprintf(w, "%-16s %14.4f %14.4f %14.4f %+8.1f%% %s\n", m.name, va, vb, vb-va, 100*rel, m.unit)
	}
	return 0
}
