package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// TestVersion1CheckpointRefused pins the format bumps: a checkpoint
// written before cache lines carried stamps (payload version 1) or before
// the agent dropped its target network (version 2) must be refused with a
// *checkpoint.MismatchError before any of its payload is decoded.
func TestVersion1CheckpointRefused(t *testing.T) {
	const fingerprint = "workload=429.mcf"
	for _, version := range []uint32{1, 2} {
		path := filepath.Join(t.TempDir(), "old.ckpt")
		err := checkpoint.Save(path, ckptKind, version, func(w io.Writer) error {
			if err := binary.Write(w, binary.LittleEndian, uint64(len(fingerprint))); err != nil {
				return err
			}
			_, err := io.WriteString(w, fingerprint)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		err = loadCheckpoint(path, fingerprint, nil)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("loading a version-%d checkpoint: got %v, want *checkpoint.MismatchError", version, err)
		}
		if mm.GotVers != version || mm.WantVersion != ckptVersion {
			t.Fatalf("mismatch reports version %d (current %d), want %d (current %d)",
				mm.GotVers, mm.WantVersion, version, ckptVersion)
		}
	}
}

// TestFlagNames pins the CLI's flag names: -trace names an input trace
// file and -shards server shards in the other commands, so rltrain
// defines neither, and its event sink is -obs-trace as in rlrsim.
func TestFlagNames(t *testing.T) {
	for _, gone := range []string{"trace", "shards"} {
		if flag.Lookup(gone) != nil {
			t.Errorf("rltrain defines -%s", gone)
		}
	}
	if flag.Lookup("obs-trace") == nil {
		t.Error("rltrain does not define -obs-trace")
	}
}
