package rl

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

var updateModelDigests = flag.Bool("update", false, "rewrite "+modelDigestsPath+" with this run's digests")

// modelDigestsPath pins the bytes a short training run produces: the
// SHA-256 of SaveModel and of Trainer.SaveState, mid-epoch and at the end.
// A kernel change that moves any weight, gradient or optimizer moment by
// one ulp moves these digests, even when it moves the batched and the
// scalar training step alike. Rewrite after an intended change with
//
//	go test ./internal/rl -run ModelDigests -update
const modelDigestsPath = "testdata/model_digests.txt"

// digestCase is one pinned training run.
type digestCase struct {
	name     string
	cc       cache.Config
	opts     TrainOptions
	accesses []trace.Access
	mid      int // steps before the mid-run snapshot
}

// digestCases covers two seeds on two shapes: a small net whose widths
// and minibatch leave ragged tile edges, and the paper's 334-175-16 net on
// a 16-way set.
func digestCases() []digestCase {
	var cases []digestCase
	for _, seed := range []uint64{7, 11} {
		small := TrainOptions{
			Agent: AgentConfig{
				Hidden: 27, Epsilon: 0.1, LearningRate: 3e-3,
				BatchSize: 10, ReplayCap: 2048, MinReplay: 40,
				TrainEvery: 2, Seed: seed, Features: AllFeatures(),
			},
			Epochs: 2,
		}
		cases = append(cases, digestCase{
			name: fmt.Sprintf("small/seed=%d", seed),
			cc:   cache.Config{Sets: 2, Ways: 4, LineSize: 64},
			opts: small, accesses: cyclicTrace(6, 50), mid: 437,
		})
		paper := DefaultTrainOptions()
		paper.Agent.Seed = seed
		paper.Agent.MinReplay = 64
		paper.Epochs = 1
		cases = append(cases, digestCase{
			name: fmt.Sprintf("paper/seed=%d", seed),
			cc:   cache.Config{Sets: 2, Ways: 16, LineSize: 64},
			opts: paper, accesses: cyclicTrace(20, 40), mid: 500,
		})
	}
	return cases
}

// runDigests trains c and returns its mid-run and final digest lines.
func runDigests(t *testing.T, c digestCase) []string {
	t.Helper()
	tr := NewTrainer(c.cc, c.accesses, c.opts)
	snap := func(point string) string {
		var model, state bytes.Buffer
		if err := tr.Agent().SaveModel(&model); err != nil {
			t.Fatalf("%s: SaveModel: %v", c.name, err)
		}
		if err := tr.SaveState(&state); err != nil {
			t.Fatalf("%s: SaveState: %v", c.name, err)
		}
		return fmt.Sprintf("%s %s model=%x state=%x", c.name, point,
			sha256.Sum256(model.Bytes()), sha256.Sum256(state.Bytes()))
	}
	for i := 0; i < c.mid; i++ {
		if !tr.Step() {
			t.Fatalf("%s: trainer finished before step %d", c.name, c.mid)
		}
	}
	mid := snap(fmt.Sprintf("step=%d", c.mid))
	tr.Run()
	return []string{mid, snap("end")}
}

// TestModelDigests checks every case's digests against modelDigestsPath.
func TestModelDigests(t *testing.T) {
	var got []string
	for _, c := range digestCases() {
		got = append(got, runDigests(t, c)...)
	}
	if *updateModelDigests {
		var b strings.Builder
		b.WriteString("# SHA-256 of Agent.SaveModel and Trainer.SaveState after short fixed\n")
		b.WriteString("# training runs, mid-run and at the end. Checked by TestModelDigests;\n")
		b.WriteString("# rewrite with\n")
		b.WriteString("#   go test ./internal/rl -run ModelDigests -update\n")
		for _, line := range got {
			b.WriteString(line + "\n")
		}
		if err := os.WriteFile(modelDigestsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadModelDigests(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, want %d", modelDigestsPath, len(want), len(got))
	}
	for _, line := range got {
		key := strings.Join(strings.Fields(line)[:2], " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no digest recorded", key)
		} else if w != line {
			t.Errorf("%s diverged:\n got %s\nwant %s", key, line, w)
		}
	}
}

// loadModelDigests reads modelDigestsPath into a map from "case point" to
// digest line.
func loadModelDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(modelDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		want[fs[0]+" "+fs[1]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
