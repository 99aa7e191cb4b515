package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/store"
)

// audit_service: verify_batch jobs (POST /v2/jobs) sent on an open-loop
// schedule to an in-process coordinator with joined in-process workers —
// `wmtool audit` against a cluster.

const (
	serviceRows = 20_000
	// serviceOwners is both the number of stored certificates each job
	// checks (one per owner, so keyhash.BlockMemo never shares a lane) and
	// the number of distinct suspect payloads (payload p is marked by
	// owner p).
	serviceOwners = 4
	serviceWMBits = 32
	serviceE      = 50
	// serviceSchema widens the generated rows with non-categorical
	// columns, as real audited tables carry.
	serviceSchema = "Visit_Nbr:int!key, Item_Nbr:int:categorical, Store_Nbr:int, Scan_Ts:int, Lane:string"
	// serviceJitter spreads each arrival by up to ±this share of the mean
	// gap around its slot on a fixed-rate grid.
	serviceJitter = 0.3
	// The lease outlives any run, so no heartbeat can expire mid-run and
	// send a job down the coordinator's local-scan fallback.
	serviceHeartbeat = 30 * time.Second
	serviceLeaseTTL  = 10 * time.Minute
	serviceJoinWait  = 10 * time.Second
	serviceLongPoll  = "30s"
	// serviceJobWait bounds one job, from its submission to the long-poll
	// answer that shows it finished.
	serviceJobWait = 60 * time.Second
	// heapWindow is the span of the open loop's heap-peak windows.
	heapWindow = time.Second
)

type serviceWorkload struct {
	p       pins
	dir     string
	schema  *relation.Schema
	records []*core.Record
	ids     []string
	jsonl   [][]byte // raw suspect payloads, one per owner
	bodies  [][]byte // pre-encoded POST /v2/jobs bodies, one per payload
	rows    int
	shards  int // shards each job must dispatch

	coord   *server.Server
	coordTS *httptest.Server
	nodes   []*server.Server
	nodeTS  []*httptest.Server
	client  *http.Client
	scans   *scanLog
}

func setupService(seed int64, scale float64, p pins, tmpRoot string) (w *serviceWorkload, err error) {
	n := scaled(serviceRows, scale)
	schema, err := relation.ParseSchemaSpec(serviceSchema)
	if err != nil {
		return nil, err
	}
	w = &serviceWorkload{p: p, schema: schema, rows: n, shards: (n + p.ShardRows - 1) / p.ShardRows, scans: newScanLog()}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e71))
	for o := 0; o < serviceOwners; o++ {
		rel, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
			N: n, CatalogSize: 1000, ZipfS: 1.0, Seed: fmt.Sprintf("service-%d-%d", seed, o),
		})
		if err != nil {
			return w, err
		}
		rec, _, err := core.Watermark(rel, core.Spec{
			Secret:     fmt.Sprintf("service-owner-%d-%d", seed, o),
			Attribute:  "Item_Nbr",
			WM:         randomBits(rng, serviceWMBits),
			E:          serviceE,
			Domain:     dom,
			Workers:    p.ScanWorkers,
			HashKernel: p.Kernel,
			BlockSize:  p.BlockRows,
		})
		if err != nil {
			return w, fmt.Errorf("service: watermark: %w", err)
		}
		w.records = append(w.records, rec)
		data, err := widenJSONL(rel, schema, rng)
		if err != nil {
			return w, err
		}
		w.jsonl = append(w.jsonl, data)
	}

	if w.dir, err = os.MkdirTemp(tmpRoot, "service-"); err != nil {
		return w, err
	}
	st, err := store.Open(filepath.Join(w.dir, "coordinator"))
	if err != nil {
		return w, err
	}
	for _, rec := range w.records {
		id, err := st.Put(rec)
		if err != nil {
			return w, err
		}
		w.ids = append(w.ids, id)
	}
	for _, data := range w.jsonl {
		body, err := json.Marshal(api.JobRequest{
			Kind: api.JobKindVerifyBatch,
			VerifyBatch: &api.BatchVerifyRequest{
				Records: w.ids, Schema: serviceSchema, Format: "jsonl", Data: string(data),
			},
		})
		if err != nil {
			return w, err
		}
		w.bodies = append(w.bodies, body)
	}
	return w, w.start(st)
}

// start brings up the coordinator and the workers and returns once every
// worker's first registration has been served — an event, not a poll.
func (w *serviceWorkload) start(st *store.Store) error {
	p := w.p
	tr := trace.Options{SampleRatio: p.TraceSampleRatio}
	w.coord = server.New(st, server.Config{
		Workers:       p.CoordWorkers,
		JobWorkers:    p.CoordJobWorkers,
		JobQueueDepth: p.JobQueueDepth,
		HashKernel:    p.Kernel,
		Trace:         tr,
		Cluster: server.ClusterConfig{
			Coordinator: true,
			Cluster: cluster.Config{
				ShardRows: p.ShardRows,
				Heartbeat: serviceHeartbeat,
				TTL:       serviceLeaseTTL,
			},
		},
	})
	joined := make(chan struct{}, p.Nodes)
	w.coordTS = httptest.NewServer(signalRegistrations(w.coord.Handler(), joined))
	for i := 0; i < p.Nodes; i++ {
		st, err := store.Open(filepath.Join(w.dir, fmt.Sprintf("node-%d", i)))
		if err != nil {
			return err
		}
		var h http.Handler
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		id := fmt.Sprintf("node-%d", i)
		srv := server.New(st, server.Config{
			Workers:       p.NodeWorkers,
			JobWorkers:    p.NodeJobWorkers,
			JobQueueDepth: p.JobQueueDepth,
			HashKernel:    p.Kernel,
			Trace:         tr,
			Cluster: server.ClusterConfig{
				JoinURL:      w.coordTS.URL,
				AdvertiseURL: "http://" + ts.Listener.Addr().String(),
				WorkerID:     id,
				Capacity:     p.NodeCapacity,
			},
		})
		h = w.scans.wrap(srv.Handler())
		ts.Start()
		w.nodes = append(w.nodes, srv)
		w.nodeTS = append(w.nodeTS, ts)
		srv.Join()
	}
	timeout := time.NewTimer(serviceJoinWait)
	defer timeout.Stop()
	for i := 0; i < p.Nodes; i++ {
		select {
		case <-joined:
		case <-timeout.C:
			return fmt.Errorf("service: %d of %d workers joined within %v", i, p.Nodes, serviceJoinWait)
		}
	}
	if live := w.coord.Coordinator().LiveWorkers(); live != p.Nodes {
		return fmt.Errorf("service: %d live workers, want %d", live, p.Nodes)
	}
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     p.InFlight,
		MaxIdleConnsPerHost: p.InFlight,
	}}
	return nil
}

func (w *serviceWorkload) close() {
	for _, srv := range w.nodes {
		srv.Close()
	}
	for _, ts := range w.nodeTS {
		ts.Close()
	}
	if w.coordTS != nil {
		w.coordTS.Close()
	}
	if w.coord != nil {
		w.coord.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// signalRegistrations passes every request to h and, after each served
// worker registration, sends on joined without blocking.
func signalRegistrations(h http.Handler, joined chan<- struct{}) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: rw, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		if r.Method == http.MethodPost && r.URL.Path == "/v2/internal/workers" && rec.status == http.StatusOK {
			select {
			case joined <- struct{}{}:
			default:
			}
		}
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// scanLog records, per request ID, every shard scan a worker served: the
// count of successful ones (the correctness gate) and each handler's
// interval (the cluster per-layer metrics).
type scanLog struct {
	mu    sync.Mutex
	byReq map[string][]shardCall
}

type shardCall struct {
	start, end time.Time
	ok         bool
}

func newScanLog() *scanLog { return &scanLog{byReq: make(map[string][]shardCall)} }

func (l *scanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/internal/scan" {
			h.ServeHTTP(rw, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: rw, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r)
		call := shardCall{start: start, end: time.Now(), ok: rec.status == http.StatusOK}
		id := r.Header.Get(obs.RequestIDHeader)
		l.mu.Lock()
		l.byReq[id] = append(l.byReq[id], call)
		l.mu.Unlock()
	})
}

func (l *scanLog) calls(id string) []shardCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byReq[id]
}

// widenJSONL writes rel's rows as JSONL under the widened schema, drawing
// the extra columns from rng.
func widenJSONL(rel *relation.Relation, schema *relation.Schema, rng *rand.Rand) ([]byte, error) {
	wide := relation.New(schema)
	for i := 0; i < rel.Len(); i++ {
		t := rel.Tuple(i)
		lane := fmt.Sprintf("lane-%02d/%c", rng.IntN(40), 'A'+rune(rng.IntN(26)))
		if err := wide.Append(relation.Tuple{
			t[0], t[1],
			strconv.Itoa(100 + rng.IntN(900)),
			strconv.FormatInt(1_600_000_000+rng.Int64N(100_000_000), 10),
			lane,
		}); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := relation.WriteJSONL(&buf, wide); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// arrivals returns the seeded open-loop schedule over d at rate jobs/s:
// one arrival per slot of a fixed grid, each jittered within its slot,
// with the payload each arrival carries.
func arrivals(seed int64, rate float64, d time.Duration) ([]time.Duration, []int) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xa771))
	gap := float64(time.Second) / rate
	n := int(d.Seconds() * rate)
	offs := make([]time.Duration, n)
	payloads := make([]int, n)
	for i := range offs {
		j := (rng.Float64()*2 - 1) * serviceJitter
		offs[i] = time.Duration(gap * (float64(i) + 0.5 + j))
		payloads[i] = rng.IntN(serviceOwners)
	}
	return offs, payloads
}

// jobResult is one job as the load generator saw it.
type jobResult struct {
	reqID   string
	payload int
	traced  bool
	late    time.Duration // send time minus scheduled time
	latency time.Duration // completion minus scheduled time
	submit  time.Duration // POST /v2/jobs round trip
	job     api.Job
	err     error
}

// openStats is what one open-loop session measured.
type openStats struct {
	jobs       []jobResult
	cpu        time.Duration
	alloc      float64
	heapPeak   float64
	gc         *gcMeter
	metricsPre map[string]float64
	metricsPos map[string]float64
}

// session runs the open loop for d. With tr non-nil every other job is
// traced.
func (w *serviceWorkload) session(ctx context.Context, seed int64, d time.Duration, tr *tracer) (*openStats, error) {
	offs, payloads := arrivals(seed, w.p.Rate, d)
	st := &openStats{jobs: make([]jobResult, len(offs))}
	var err error
	if st.metricsPre, err = w.scrape(); err != nil {
		return nil, err
	}
	settle()
	var gc *gcMeter
	if tr != nil {
		gc = newGCMeter()
	}
	sem := make(chan struct{}, w.p.InFlight)
	var wg sync.WaitGroup
	run := func() {
		hs := startHeapSampler(heapWindow)
		a0, c0 := allocBytes(), cpuTime()
		start := time.Now().Add(5 * time.Millisecond)
		for i, off := range offs {
			due := start.Add(off)
			time.Sleep(time.Until(due))
			sem <- struct{}{}
			late := time.Since(due)
			var jt *tracer
			if tr != nil && i%2 == 1 {
				jt = tr
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				st.jobs[i] = w.job(ctx, i, payloads[i], due, jt)
				st.jobs[i].late = late
			}()
		}
		wg.Wait()
		st.cpu = cpuTime() - c0
		st.alloc = allocBytes() - a0
		st.heapPeak = hs.finish()
	}
	if gc != nil {
		gc.measure(run)
	} else {
		run()
	}
	st.gc = gc
	if st.metricsPos, err = w.scrape(); err != nil {
		return nil, err
	}
	return st, nil
}

// job submits one verify_batch job and long-polls it to a terminal state.
func (w *serviceWorkload) job(ctx context.Context, i, payload int, due time.Time, tr *tracer) jobResult {
	res := jobResult{reqID: fmt.Sprintf("bench-%06d", i), payload: payload, traced: tr != nil}
	ctx, cancel := context.WithTimeout(ctx, serviceJobWait)
	defer cancel()
	root := tr.startAt("op.audit_service", -1, i, due)
	defer tr.end(root)

	s := tr.start("server.POST /v2/jobs", root, i)
	t0 := time.Now()
	res.err = w.call(ctx, http.MethodPost, "/v2/jobs", w.bodies[payload], res.reqID, http.StatusAccepted, &res.job)
	res.submit = time.Since(t0)
	tr.end(s)
	if res.err != nil {
		return res
	}
	s = tr.start("server.GET /v2/jobs/{id}?wait", root, i)
	for !res.job.State.Terminal() && res.err == nil {
		res.err = w.call(ctx, http.MethodGet, "/v2/jobs/"+res.job.ID+"?wait="+serviceLongPoll, nil, res.reqID, http.StatusOK, &res.job)
	}
	tr.end(s)
	res.latency = time.Since(due)
	for _, c := range w.scans.calls(res.reqID) {
		tr.record("cluster.POST /v2/internal/scan", root, i, c.start, c.end)
	}
	return res
}

// call does one JSON exchange with the coordinator, demanding want.
func (w *serviceWorkload) call(ctx context.Context, method, path string, body []byte, reqID string, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.coordTS.URL+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", api.ContentTypeJSON)
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape sums every sample of every metric family on the coordinator's
// and the workers' /metrics pages, by family name.
func (w *serviceWorkload) scrape() (map[string]float64, error) {
	out := make(map[string]float64)
	urls := []string{w.coordTS.URL}
	for _, ts := range w.nodeTS {
		urls = append(urls, ts.URL)
	}
	for _, u := range urls {
		resp, err := w.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			name := line[:sp]
			if b := strings.IndexByte(name, '{'); b >= 0 {
				name = name[:b]
			}
			out[name] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expected is the local reference for payload p: core.VerifyBatch over
// the same bytes, with the same pinned options.
func (w *serviceWorkload) expected(ctx context.Context, p int) ([]core.BatchReport, error) {
	src := relation.NewJSONLBlockReader(bytes.NewReader(w.jsonl[p]), w.schema)
	return core.VerifyBatch(ctx, w.records, src, core.BatchOptions{
		Workers: w.p.ScanWorkers, HashKernel: w.p.Kernel, BlockSize: w.p.BlockRows,
	})
}

// gate checks every job against the local reference and the shard count
// it must have dispatched; it returns how many jobs failed and the first
// reason.
func (w *serviceWorkload) gate(ctx context.Context, jobs []jobResult) (int, error) {
	want := make([][]core.BatchReport, serviceOwners)
	failed := 0
	var first error
	for _, j := range jobs {
		err := j.err
		if err == nil {
			if want[j.payload] == nil {
				var werr error
				if want[j.payload], werr = w.expected(ctx, j.payload); werr != nil {
					return len(jobs), werr
				}
			}
			err = w.checkJob(j, want[j.payload])
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("job %s: %w", j.reqID, err)
			}
		}
	}
	return failed, first
}

func (w *serviceWorkload) checkJob(j jobResult, want []core.BatchReport) error {
	if j.job.State != api.JobDone || j.job.VerifyBatch == nil {
		if j.job.Error != nil {
			return fmt.Errorf("state %s: %s: %s", j.job.State, j.job.Error.Code, j.job.Error.Message)
		}
		return fmt.Errorf("state %s", j.job.State)
	}
	ok := 0
	for _, c := range w.scans.calls(j.reqID) {
		if c.ok {
			ok++
		}
	}
	if ok != w.shards {
		return fmt.Errorf("%d shard scans served, want %d (a local-scan fallback serves none)", ok, w.shards)
	}
	got := j.job.VerifyBatch
	if got.Tuples != w.rows || len(got.Results) != len(want) {
		return fmt.Errorf("%d tuples and %d results, want %d and %d", got.Tuples, len(got.Results), w.rows, len(want))
	}
	for k, r := range got.Results {
		wr := want[k]
		if r.ID != w.ids[k] || r.Error != "" || wr.Err != nil || r.Match != wr.Report.Match || r.Detected != wr.Report.Detected {
			return fmt.Errorf("certificate %d: got %+v, local scan %+v (err %v)", k, r, wr.Report, wr.Err)
		}
	}
	if m := got.Results[j.payload].Match; m < core.PresentThreshold {
		return fmt.Errorf("owner certificate match %v, below the present verdict", m)
	}
	return nil
}
