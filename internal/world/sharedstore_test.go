package world

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"anycastctx/internal/artifact"
)

// sharedStoreWriter is the positional argument that runs the test binary
// as one writer of TestSharedStoreTwoProcesses instead of as the test:
//
//	<test binary> -test.run=^TestSharedStoreTwoProcesses$ shared-store-writer <store dir>
const sharedStoreWriter = "shared-store-writer"

// TestSharedStoreTwoProcesses runs two processes, this test binary
// re-executed, concurrently on one configuration and one artifact store.
// Each must end up with the stage bytes of a cold build, and the store
// must end with one artifact per persisted stage and no temp files.
func TestSharedStoreTwoProcesses(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.05}
	if args := flag.Args(); len(args) == 2 && args[0] == sharedStoreWriter {
		cfg.CacheDir = args[1]
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Demand(context.Background(), persistedStages()...); err != nil {
			t.Fatal(err)
		}
		for _, line := range stageDigestLines(t, w) {
			fmt.Println(line)
		}
		return
	}

	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Demand(context.Background(), persistedStages()...); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(stageDigestLines(t, cold), "\n")

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var outs [2]bytes.Buffer
	var cmds [2]*exec.Cmd
	for i := range cmds {
		cmds[i] = exec.Command(exe, "-test.run=^TestSharedStoreTwoProcesses$", sharedStoreWriter, dir)
		cmds[i].Stdout = &outs[i]
		cmds[i].Stderr = &outs[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("writer %d: %v\n%s", i, err, outs[i].String())
		}
		var got []string
		for _, line := range strings.Split(outs[i].String(), "\n") {
			if strings.HasPrefix(line, "digest ") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != want {
			t.Errorf("writer %d stage digests:\n%s\ncold build:\n%s", i, strings.Join(got, "\n"), want)
		}
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names, wantNames []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range persistedStages() {
		wantNames = append(wantNames, filepath.Base(st.Path(string(id), cold.Key(id))))
	}
	sort.Strings(wantNames)
	if strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Errorf("store holds %v, want one artifact per persisted stage: %v", names, wantNames)
	}
}

// stageDigestLines returns "digest <stage> <sha256>" for each persisted
// stage of w, in topological order.
func stageDigestLines(t *testing.T, w *World) []string {
	t.Helper()
	blobs := stageBytes(t, w)
	var lines []string
	for _, id := range persistedStages() {
		sum := sha256.Sum256(blobs[id])
		lines = append(lines, fmt.Sprintf("digest %s %s", id, hex.EncodeToString(sum[:])))
	}
	return lines
}
