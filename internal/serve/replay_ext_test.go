package serve_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpa/internal/cluster"
	"cpa/internal/loadgen"
	"cpa/internal/serve"
)

// TestTruncationResidueAcceptedEverywhere pins the single truncation
// contract (DESIGN.md §12) on every journal reader: a base checkpoint that
// runs ahead of its journal's base header, with the covered residue still in
// the file, is accepted by crash recovery, by a cluster follower resyncing
// through ?base=1, and by the loadgen replay checker — and all three arrive
// at the bit-identical snapshot. A seed behind the header stays rejected
// with ErrInvalid.
func TestTruncationResidueAcceptedEverywhere(t *testing.T) {
	const id = "residue"
	dataDir := t.TempDir()
	spec, behind := serve.WriteResidueJob(t, dataDir, id)
	jobDir := filepath.Join(dataDir, "jobs", id)
	// Keep the crashed job's files: recovery appends a restart marker.
	pristine := copyJobDir(t, jobDir, t.TempDir())

	reg, err := serve.Open(serve.Config{Dir: dataDir, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatalf("recovery rejected the residue journal: %v", err)
	}
	defer reg.Close()
	job, ok := reg.Get(id)
	if !ok {
		t.Fatal("job not recovered")
	}
	recovered := job.Snapshot()
	if recovered.Round != 5 || recovered.Answers != 160 {
		t.Fatalf("recovered snapshot at round %d / %d answers, want 5 / 160", recovered.Round, recovered.Answers)
	}

	for _, dir := range []string{pristine, jobDir} {
		if err := loadgen.CheckReplay(filepath.Join(dir, serve.JournalFileName), spec, recovered); err != nil {
			t.Fatalf("replay checker on %s: %v", dir, err)
		}
	}

	src := httptest.NewServer(serve.NewServer(reg))
	defer src.Close()
	primary := getSnapshot(t, src.URL, id)
	durable, _ := job.JournalOffsets()
	node, stats := followUntil(t, src.URL, id, func(st cluster.ReplicaStats) bool { return st.AppliedBytes >= durable })
	if stats.BaseBytes == 0 {
		t.Fatalf("follower never resynced through the base handshake: %+v", stats)
	}
	follower := getSnapshot(t, node, id)
	if follower.Round != primary.Round || follower.Answers != primary.Answers ||
		!reflect.DeepEqual(follower.Consensus, primary.Consensus) {
		t.Fatalf("follower snapshot (round %d, %d answers) differs from the primary's (round %d, %d answers)",
			follower.Round, follower.Answers, primary.Round, primary.Answers)
	}

	// A seed behind the header cannot cover the dropped prefix.
	if err := os.WriteFile(filepath.Join(pristine, serve.BaseCheckpointFileName), behind, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadgen.CheckReplay(filepath.Join(pristine, serve.JournalFileName), spec, recovered); !errors.Is(err, serve.ErrInvalid) {
		t.Fatalf("replay checker on a seed behind the header: %v, want ErrInvalid", err)
	}
	behindDir := t.TempDir()
	copyJobDir(t, pristine, filepath.Join(behindDir, "jobs", id))
	if err := os.WriteFile(filepath.Join(behindDir, "jobs", id, serve.CheckpointFileName), behind, 0o644); err != nil {
		t.Fatal(err)
	}
	if reg2, err := serve.Open(serve.Config{Dir: behindDir}); !errors.Is(err, serve.ErrInvalid) {
		if reg2 != nil {
			reg2.Close()
		}
		t.Fatalf("recovery from a seed behind the header: %v, want ErrInvalid", err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, serve.BaseCheckpointFileName), behind, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats = followUntil(t, src.URL, id, func(st cluster.ReplicaStats) bool { return st.Wedged })
	if !strings.Contains(stats.Error, serve.ErrInvalid.Error()) {
		t.Fatalf("follower of a seed behind the header wedged with %q, want ErrInvalid", stats.Error)
	}
}

// copyJobDir copies a job directory's files into dst (created) and returns
// dst.
func copyJobDir(t *testing.T, src, dst string) string {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// followUntil starts a fresh cluster node following job id on the source
// and polls its replica stats until done holds, returning the node's URL
// and those stats. A replica that wedges before done holds fails the test.
func followUntil(t *testing.T, source, id string, done func(cluster.ReplicaStats) bool) (string, cluster.ReplicaStats) {
	t.Helper()
	node, err := cluster.NewNode("follower", t.TempDir(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node)
	t.Cleanup(func() {
		ts.Close()
		node.Close()
	})
	if err := node.Follow(id, source); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st cluster.ReplicaStats
		getJSON(t, ts.URL+"/v1/replicate/"+id, &st)
		if done(st) {
			return ts.URL, st
		}
		if st.Wedged || time.Now().After(deadline) {
			t.Fatalf("replica never reached the wanted state: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getSnapshot(t *testing.T, base, id string) *serve.Snapshot {
	t.Helper()
	var snap serve.Snapshot
	getJSON(t, base+"/v1/jobs/"+id+"/consensus", &snap)
	return &snap
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
