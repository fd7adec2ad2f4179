package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// envStamp identifies the host and build a result came from, so numbers
// from different machines are never compared blindly. It is printed on
// the line before the result.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	// StoreFS is the filesystem of the scratch directory, where the
	// traced run's diskcache probes keep their stores.
	StoreFS string `json:"store_fs"`
	// HostRef is single-core SHA-256 throughput (MB/s) of a fixed
	// buffer at the start and at the end of the run: how fast the host
	// itself was, so a slow period of a shared machine can be told from
	// a slower program. No repository code runs in it.
	HostRef []float64 `json:"host_ref_sha256_mb_s"`
	// Notes carries per-workload facts a reader needs to interpret a
	// metric, e.g. which percentile a tail metric could be reported at.
	Notes map[string]string `json:"notes,omitempty"`
}

// hostRef measures single-core SHA-256 throughput in MB/s for 200 ms.
func hostRef() float64 {
	buf := make([]byte, 64<<10)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		sha256.Sum256(buf)
		n++
	}
	return float64(n*len(buf)) / time.Since(t0).Seconds() / 1e6
}

func newEnvStamp(workload string, seed int64, seconds int, trace bool, storeDir string) envStamp {
	return envStamp{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit("."),
		Source:     sourceDigest("."),
		StoreFS:    fsType(storeDir),
		HostRef:    []float64{hostRef()},
		Notes:      map[string]string{},
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// gitCommit resolves HEAD from a .git directory without running git;
// "none" when the checkout is not a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unresolved " + ref
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes the Go sources, module files and test data of the
// checkout (paths and contents, in path order): it names the code a
// result measured even where there is no commit to name.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "node_modules") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(p); ext == ".go" || ext == ".mod" || ext == ".txt" || ext == ".json" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// fsMagic names the filesystems a store directory is likely to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType reports the filesystem type of dir (or its nearest existing
// parent).
func fsType(dir string) string {
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			if n, ok := fsMagic[int64(st.Type)]; ok {
				return n
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
