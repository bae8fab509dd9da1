package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"cpa/internal/cluster"
	"cpa/internal/serve"
)

// stack is the system under test, served in-process over loopback HTTP:
// one serve node, or (replicated) a cluster router in front of a primary
// and one journal-shipping follower.
type stack struct {
	dir     string          // data directory of the whole stack
	cfg     serve.Config    // the registry config that owns the jobs
	reg     *serve.Registry // registry owning the jobs (the primary's)
	base    string          // URL clients send to
	servers []*loopback

	primary, follower *cluster.Node
}

func openStack(w workload, dir string) (*stack, error) {
	if !w.replicated {
		cfg := serve.Config{Dir: dir}
		reg, err := serve.Open(cfg)
		if err != nil {
			return nil, err
		}
		srv, err := listen(serve.NewServer(reg))
		if err != nil {
			reg.CrashAll()
			return nil, err
		}
		return &stack{dir: dir, cfg: cfg, reg: reg, base: srv.url, servers: []*loopback{srv}}, nil
	}
	cfg := serve.Config{Dir: filepath.Join(dir, "a"), SyncJournal: true}
	s := &stack{dir: dir, cfg: cfg}
	var err error
	if s.primary, err = cluster.NewNode("a", cfg.Dir, cfg); err != nil {
		return nil, err
	}
	s.reg = s.primary.Registry()
	fcfg := cfg
	fcfg.Dir = filepath.Join(dir, "b")
	if s.follower, err = cluster.NewNode("b", fcfg.Dir, fcfg); err != nil {
		s.crash()
		return nil, err
	}
	urls := map[string]string{}
	for name, h := range map[string]http.Handler{"a": s.primary, "b": s.follower} {
		srv, err := listen(h)
		if err != nil {
			s.crash()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		urls[name] = srv.url
	}
	rt, err := cluster.NewRouter(cluster.MapSpec{
		Nodes:  urls,
		Shards: []cluster.ShardSpec{{Primary: "a", Followers: []string{"b"}}},
	})
	if err != nil {
		s.crash()
		return nil, err
	}
	srv, err := listen(rt)
	if err != nil {
		s.crash()
		return nil, err
	}
	s.servers = append([]*loopback{srv}, s.servers...)
	s.base = srv.url
	return s, nil
}

// crash hard-kills the stack: servers stop, the follower stops shipping,
// and every primary job stops cold with no final checkpoint.
func (s *stack) crash() {
	for _, srv := range s.servers {
		srv.close()
	}
	s.servers = nil
	if s.follower != nil {
		s.follower.Close()
	}
	if s.primary != nil {
		s.primary.Crash()
	} else if s.reg != nil {
		s.reg.CrashAll()
	}
}

// nodeGet serves one GET on a cluster node in-process (no connection) and
// decodes the JSON answer.
func nodeGet(n *cluster.Node, path string, v any) error {
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s on node %s: status %d", path, n.Name(), rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// followerRound is the fit round of the follower's applied snapshot.
func (s *stack) followerRound(id string) (int, error) {
	var st cluster.ReplicaStats
	if err := nodeGet(s.follower, "/v1/replicate/"+id, &st); err != nil {
		return 0, err
	}
	return st.SnapshotRound, nil
}

// replicationLag is the largest replication lag, in journal bytes, over
// the tenants: the primary's durable journal offset minus what the
// follower's /statsz reports as applied.
func (s *stack) replicationLag(ts []*tenant) (int64, error) {
	var st cluster.NodeStats
	if err := nodeGet(s.follower, "/statsz", &st); err != nil {
		return 0, err
	}
	applied := map[string]int64{}
	for _, r := range st.Replicas {
		applied[r.ID] = r.AppliedBytes
	}
	var lag int64
	for _, t := range ts {
		if j, ok := s.reg.Get(t.id); ok {
			durable, _ := j.JournalOffsets()
			lag = max(lag, durable-applied[t.id])
		}
	}
	return lag, nil
}

// followerSnapshot reads the consensus the follower node serves.
func (s *stack) followerSnapshot(id string) (*serve.Snapshot, error) {
	var snap serve.Snapshot
	if err := nodeGet(s.follower, "/v1/jobs/"+id+"/consensus", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
