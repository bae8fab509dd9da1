// Cluster smoke driver: streams a deterministic simulated crowd into a
// cpaserve target — a cparouter fronting a sharded cluster of
// `cpaserve -name` nodes, or a single cpaserve — in lockstep chunks,
// quiescing after every chunk.
//
// The lockstep discipline (chunk size == mini-batch size, full quiesce
// between chunks) makes the fitter's batch boundaries a pure function of
// the stream, so two runs over different topologies produce bit-identical
// consensus. That is what lets the CI cluster-smoke job kill a shard
// primary mid-stream, let the router promote a journal-shipping follower,
// finish the stream, and then diff the cluster's consensus against an
// uninterrupted single-node run — byte for byte (modulo created_at).
//
// The -from/-to chunk window splits one logical stream across invocations
// so the kill happens between two driver runs:
//
//	go run ./examples/clustersmoke -addr http://localhost:8080 -job smoke -create -to 5
//	# ... kill -9 the shard primary ...
//	go run ./examples/clustersmoke -addr http://localhost:8080 -job smoke -from 5
//
// Ingestion retries 429 backpressure and the router's 502
// failed-over-please-retry answer (the router never retries writes itself;
// the client owns the retry).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"time"

	"cpa"
	"cpa/internal/answers"
	"cpa/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "base URL of the cparouter or cpaserve to stream into")
		jobID   = flag.String("job", "smoke", "job id")
		create  = flag.Bool("create", false, "create the job before streaming")
		profile = flag.String("profile", "image", "Table 3 profile to simulate")
		scale   = flag.Float64("scale", 0.08, "profile scale in (0,1]")
		seed    = flag.Int64("seed", 5, "simulation and model seed")
		chunk   = flag.Int("chunk", 64, "answers per chunk == mini-batch size (lockstep)")
		from    = flag.Int("from", 0, "first chunk index to send")
		to      = flag.Int("to", -1, "stop before this chunk index (-1 = stream to the end)")
	)
	flag.Parse()

	base, _, err := cpa.LoadProfile(*profile, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	ds := base.Shuffled(rand.New(rand.NewSource(*seed)))
	all := ds.Answers()
	nChunks := (len(all) + *chunk - 1) / *chunk
	end := nChunks
	if *to >= 0 && *to < nChunks {
		end = *to
	}
	client := &http.Client{Timeout: 60 * time.Second}

	if *create {
		body, _ := json.Marshal(serve.CreateJobRequest{
			ID: *jobID, Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
			Model: cpa.Options{Seed: *seed, BatchSize: *chunk},
		})
		resp, err := client.Post(*addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			log.Fatalf("creating job %q: status %d", *jobID, resp.StatusCode)
		}
		fmt.Printf("created job %s (%d items, %d workers, %d labels; %d chunks of %d)\n",
			*jobID, ds.NumItems, ds.NumWorkers, ds.NumLabels, nChunks, *chunk)
	}

	for c := *from; c < end; c++ {
		lo, hi := c**chunk, min((c+1)**chunk, len(all))
		sendChunk(client, *addr, *jobID, all[lo:hi])
		quiesce(client, *addr, *jobID, int64(hi))
		fmt.Printf("chunk %d/%d: %d answers acked, fitted and published\n", c+1, nChunks, hi)
	}
	fmt.Printf("done: chunks [%d,%d) of %d streamed into %s\n", *from, end, nChunks, *addr)
}

// sendChunk posts one NDJSON request, retrying backpressure (429) and
// failover (502 / connection errors) until the target acks.
func sendChunk(client *http.Client, base, jobID string, chunk []answers.Answer) {
	var body bytes.Buffer
	for _, a := range chunk {
		line, err := answers.MarshalAnswerJSON(a)
		if err != nil {
			log.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	payload := body.Bytes()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Post(base+"/v1/jobs/"+jobID+"/answers", "application/x-ndjson", bytes.NewReader(payload))
		status := 0
		if err == nil {
			status = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		switch status {
		case http.StatusAccepted:
			return
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusGatewayTimeout, 0:
			if time.Now().After(deadline) {
				log.Fatalf("ingestion never recovered (last status %d, err %v)", status, err)
			}
			time.Sleep(20 * time.Millisecond)
		default:
			log.Fatalf("ingesting chunk: status %d", status)
		}
	}
}

// quiesce polls the job stats until everything sent so far is fitted and
// the published snapshot has caught the fit round exactly.
func quiesce(client *http.Client, base, jobID string, sent int64) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st serve.JobStats
		resp, err := client.Get(base + "/v1/jobs/" + jobID)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&st)
			} else {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err == nil && st.Error == "" && st.IngestedAnswers == sent &&
			st.FittedAnswers == sent && st.SnapshotRound == int(st.FitRounds) {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("job %s never quiesced at %d answers (stats %+v, err %v)", jobID, sent, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
