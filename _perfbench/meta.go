package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runMeta describes the run: the code measured, the host, the seed and the
// workload's parameters.
func runMeta(sp Spec, seed int64, seconds float64, traced bool) map[string]any {
	return map[string]any{
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"seed":          seed,
		"seconds":       seconds,
		"traced":        traced,
		"workload":      sp,
		"nodes":         5*sp.Patients + 2,
		"users":         sp.Patients + len(staffUsers),
		"active_users":  activeUsers(sp),
		"request_mix":   requestMix(sp),
	}
}

func activeUsers(sp Spec) int {
	switch {
	case sp.Staff:
		return len(staffUsers)
	case sp.StaffEvery > 0:
		return sp.Patients + len(staffUsers)
	default:
		return sp.Patients
	}
}

func requestMix(sp Spec) string {
	if sp.Staff {
		return "uniform over //diagnosis/text(), /patients/*/service, //service[text()='oncology'], value count(//diagnosis); uniform staff user"
	}
	mix := "uniform patient; 3/10 each own diagnosis text(), //diagnosis, value string(own diagnosis); 1/10 GET /view"
	if sp.StaffEvery > 0 {
		mix += "; 1 in 5 sent by a uniform staff user about the drawn patient"
	}
	return mix
}

// gitCommit is the checked-out commit, or "unknown" outside a git work
// tree (the benchmark also runs from exported source trees).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root, so runs
// of identical code can be matched without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
