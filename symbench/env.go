package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// envStamp describes where and on what a result was measured.
func envStamp(root string, daemonFlags []string) map[string]any {
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu":             cpuModel(),
		"go":              runtime.Version(),
		"commit":          commit(root),
		"date":            time.Now().UTC().Format(time.RFC3339),
		"symphonyd_flags": daemonFlags,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git commit when the checkout
// is a repository, else a hash of the program's sources.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	for _, sub := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, sub), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat; the share stolen between two reads says how much the
// hypervisor took from this machine meanwhile.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
