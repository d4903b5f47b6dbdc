package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite "+generatorDigestsPath+" with this run's digests")

// generatorDigestsPath holds one line per spec: its name and the SHA-256
// of its first digestInstrs instructions. A change that moves any
// generator's output fails TestGeneratorDigests; after an intended change,
// rewrite the file with
//
//	go test ./internal/workloads -run GeneratorDigests -update
const generatorDigestsPath = "testdata/generator_digests.txt"

const digestInstrs = 200_000

// phaseCycleSpec is a test-only spec whose 1,000-instruction phases cycle
// through every pattern a generator builds state for (Zipf twice with the
// same table, pointer chase, stream, and an irregular side region), so
// the digest's 200k instructions enter each phase 40 times.
func phaseCycleSpec() Spec {
	return Spec{
		Name: "test.phase-cycle", MemRatio: 0.5, StoreRatio: 0.25, CodeFootprint: 64, Seed: 77,
		Phases: []Phase{
			{Instructions: 1000, Pattern: PatternZipf, FootprintKB: 4 * 1024, ZipfS: 0.9},
			{Instructions: 1000, Pattern: PatternPointerChase, FootprintKB: 512},
			{Instructions: 1000, Pattern: PatternZipf, FootprintKB: 4 * 1024, ZipfS: 0.9, ReuseTouches: 1},
			{Instructions: 1000, Pattern: PatternStream, FootprintKB: 1024, StrideBytes: 64, Streams: 2,
				IrregularPct: 0.3, IrregularKB: 2 * 1024},
			{Instructions: 1000, Pattern: PatternUniform, FootprintKB: 256,
				IrregularPct: 0.5, IrregularKB: 3 * 1024},
		},
	}
}

// generatorDigest hashes the first digestInstrs instructions of spec.
func generatorDigest(spec Spec) string {
	g := New(spec)
	h := sha256.New()
	var buf [17]byte
	for i := 0; i < digestInstrs; i++ {
		in := g.Next()
		binary.LittleEndian.PutUint64(buf[0:], in.PC)
		binary.LittleEndian.PutUint64(buf[8:], in.Addr)
		buf[16] = byte(in.Kind)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s instrs=%d sha256=%x", spec.Name, digestInstrs, h.Sum(nil))
}

// TestGeneratorDigests pins the instruction stream of every registered
// spec and of phaseCycleSpec against generatorDigestsPath.
func TestGeneratorDigests(t *testing.T) {
	specs := append(All(), phaseCycleSpec())
	got := make([]string, len(specs))
	for i, s := range specs {
		got[i] = generatorDigest(s)
	}
	if *updateDigests {
		var b strings.Builder
		b.WriteString("# SHA-256 of each generator's first 200,000 instructions (PC, Addr,\n")
		b.WriteString("# Kind, little-endian). Checked by TestGeneratorDigests; rewrite with\n")
		b.WriteString("#   go test ./internal/workloads -run GeneratorDigests -update\n")
		for _, line := range got {
			b.WriteString(line + "\n")
		}
		if err := os.WriteFile(generatorDigestsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadGeneratorDigests(t)
	if len(want) != len(specs) {
		t.Errorf("%s has %d digests, want %d", generatorDigestsPath, len(want), len(specs))
	}
	for i, s := range specs {
		if got[i] != want[s.Name] {
			t.Errorf("%s diverged:\n got %s\nwant %s", s.Name, got[i], want[s.Name])
		}
	}
}

// loadGeneratorDigests reads generatorDigestsPath into a map from spec
// name to digest line.
func loadGeneratorDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(generatorDigestsPath)
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
		want[strings.Fields(line)[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
