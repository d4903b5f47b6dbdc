package repro

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchProvenance checks that every committed BENCH_*.json was
// generated from this history and from a clean tree: its meta.git_sha must
// name an ancestor of HEAD, and meta.git_dirty, when recorded, must be
// false. Figures quoted in README and EXPERIMENTS come from these files,
// so one built from an uncommitted or foreign tree could not be
// reproduced. The test skips only when git or the .git directory is
// absent (an exported source tree has no history to check against).
func TestBenchProvenance(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	if _, err := os.Stat(".git"); err != nil {
		t.Skip("not a git checkout")
	}
	out, err := exec.Command("git", "ls-files", "BENCH_*.json").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	files := strings.Fields(string(out))
	if len(files) == 0 {
		t.Fatal("no committed BENCH_*.json")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Meta struct {
				GitSHA   string `json:"git_sha"`
				GitDirty bool   `json:"git_dirty"`
			} `json:"meta"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		sha := doc.Meta.GitSHA
		switch {
		case sha == "":
			t.Errorf("%s: meta.git_sha is empty", f)
		case doc.Meta.GitDirty:
			t.Errorf("%s: generated from a dirty tree (meta.git_dirty is true)", f)
		default:
			cmd := exec.Command("git", "merge-base", "--is-ancestor", sha, "HEAD")
			if msg, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("%s: meta.git_sha %s is not an ancestor of HEAD: %v %s", f, sha, err, msg)
			}
		}
	}
}
