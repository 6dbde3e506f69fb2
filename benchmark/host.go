package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint recorded in every output file, so two
// reports can be told apart by where and how they were taken.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%s %s/%s, %d cpu (GOMAXPROCS %d, GOGC %s), %s, kernel %s",
		h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.GOGC, h.CPUModel, h.Kernel)
}

func readHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
	if h.GOGC == "" {
		h.GOGC = "default(100)"
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}
