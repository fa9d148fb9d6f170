package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Provenance identifies what was measured and where.
type Provenance struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Commit and Dirty come from -commit/-dirty (perfbench/run.py asks
	// git); outside a git checkout they are unknown, and SourceSHA256 (all
	// .go files under internal/ and cmd/, in path order) identifies the code
	// instead.
	Commit       string `json:"commit"`
	Dirty        string `json:"dirty"`
	SourceSHA256 string `json:"source_sha256"`
	WeightsSHA   string `json:"weights_sha256"`
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	// Rates are the fixed open-loop arrival rates (requests/s).
	Rates map[string]float64 `json:"open_loop_rates,omitempty"`
	WallS float64            `json:"wall_s"`
}

func provenance(o Options) (*Provenance, error) {
	p := &Provenance{
		Workload:   o.Workload,
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Trace:      o.Trace,
		Commit:     o.Commit,
		Dirty:      o.Dirty,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	w, err := weightsSHA(o.Weights)
	if err != nil {
		return nil, err
	}
	p.WeightsSHA = w
	p.SourceSHA256 = sourceSHA()
	return p, nil
}

// weightsSHA hashes the pretrained weight file, failing when it is missing:
// without it the registry would train a fallback model, whose numbers mean
// nothing.
func weightsSHA(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, "yolite.gob"))
	if err != nil {
		return "", fmt.Errorf("pretrained weights: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("pretrained weights: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sourceSHA() string {
	var files []string
	for _, root := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
