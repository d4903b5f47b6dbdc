package repro

import (
	"encoding/json"
	"fmt"
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
// reproduced. BENCH_pairs.json compares two commits, so its parent_sha
// and change_sha must name ancestors of HEAD too. The test skips only when
// git or the .git directory is absent (an exported source tree has no
// history to check against).
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
	isAncestor := func(sha string) error {
		cmd := exec.Command("git", "merge-base", "--is-ancestor", sha, "HEAD")
		if msg, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("%s is not an ancestor of HEAD: %v %s", sha, err, msg)
		}
		return nil
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
			ParentSHA string `json:"parent_sha"`
			ChangeSHA string `json:"change_sha"`
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
			if err := isAncestor(sha); err != nil {
				t.Errorf("%s: meta.git_sha %v", f, err)
			}
		}
		if f != "BENCH_pairs.json" {
			continue
		}
		for field, sha := range map[string]string{"parent_sha": doc.ParentSHA, "change_sha": doc.ChangeSHA} {
			if sha == "" {
				t.Errorf("%s: %s is empty", f, field)
			} else if err := isAncestor(sha); err != nil {
				t.Errorf("%s: %s %v", f, field, err)
			}
		}
	}
}
