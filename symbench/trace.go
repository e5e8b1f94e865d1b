package main

// The traced run. It builds the platform in process the way symphonyd
// does (core.New with the daemon's default config, the internal/demo
// seeding, the same upload bytes) and replays the workload's request
// sequence in one client, once per entry point, each pass on a freshly
// restored platform so caches start in the same state:
//
//	http     the HTTP mux over loopback, untraced (the overhead baseline)
//	traced   the HTTP mux over loopback, with spans
//	execute  runtime.Executor.Execute and ingest.Uploader.Upload
//	store    store.Dataset.SearchContext, ingest.Parse, Store.AddBatchContext
//	engine   engine.Engine.Query with the pages' supplemental drive queries
//	recover  Checkpointer restore, WAL replay of the store pass's tail, checkpoint
//
// Every call into a layer is one span (name, start, end, parent,
// request id). Spans stay in memory and are written to
// .bench_build/traces/ when the run ends.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/host"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

type traceResult struct {
	metrics map[string]metric
	info    map[string]any
}

// spanRec is one call into a layer. Times are ms since the run began.
type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Pass   string  `json:"pass"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	pass   string
	lastID int
	spans  []spanRec
}

// reserve allocates a span id before the call it names, so calls it
// causes can name it as their parent.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// record stores the span with a reserved id.
func (t *tracer) record(id int, name string, parent, req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{id, parent, req, t.pass, name, ms(start.Sub(t.t0)), ms(end.Sub(t.t0))})
}

// add records a span with no children.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	t.record(t.reserve(), name, parent, req, start, end)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		enc.Encode(s)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// traceOp is one step of the replayed sequence: a query of the stream
// or a re-upload batch.
type traceOp struct {
	query, batch int // one is -1
}

// traceOps lays out the workload's sequence in due-time order: the
// open-loop arrivals with the workload's uploads, then the crash
// phase's uploads. Warm-up queries precede it, untimed.
func (r *e2e) traceOps(seconds float64) []traceOp {
	openDur := seconds * (1 - closedShare)
	var ops []traceOp
	q, b := warmQueries, 0
	merge := func(arrivals []float64, every, until float64) {
		k := 1
		for _, a := range arrivals {
			for every > 0 && float64(k)*every <= a && float64(k)*every < until {
				ops = append(ops, traceOp{-1, b})
				b++
				k++
			}
			ops = append(ops, traceOp{q, -1})
			q++
		}
	}
	merge(poissonArrivals(r.seed, r.w.rate, int(r.w.rate*openDur)), r.w.uploadEvery.Seconds(), openDur)
	for i := 0; i < int(crashPhase/crashEvery); i++ {
		ops = append(ops, traceOp{-1, b})
		b++
	}
	return ops
}

// countingTransport times every outbound call the platform's
// web-service client makes (the pricing service).
type countingTransport struct {
	mu    sync.Mutex
	calls []float64
	tr    *tracer
	// req and span name the page being executed, whose supplemental
	// fan-out makes the calls.
	req, span *int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	end := time.Now()
	c.mu.Lock()
	c.calls = append(c.calls, ms(end.Sub(start)))
	c.mu.Unlock()
	c.tr.add("webservice.call", *c.span, *c.req, start, end)
	return resp, err
}

func (c *countingTransport) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.calls
	c.calls = nil
	return out
}

// platform is one in-process symphonyd.
type platform struct {
	p     *core.Platform
	cp    *core.Checkpointer
	dir   string
	base  string
	ln    net.Listener
	scens []*demo.Scenario
	app   *app.Application
}

func (pl *platform) close() {
	for _, s := range pl.scens {
		s.Close()
	}
	if pl.ln != nil {
		pl.ln.Close()
	}
	if pl.cp != nil && pl.cp.WAL() != nil {
		pl.cp.WAL().Close()
	}
}

type traceRun struct {
	*e2e
	tr       *tracer
	rt       *countingTransport
	curReq   int
	curSpan  int
	snapshot string
	restores []float64
	batches  [][]byte
	ops      []traceOp
}

// newPlatform builds a platform like symphonyd's over dir: demo
// seeding, restore of the latest snapshot with mmap on, the WAL with
// group commit, and the catalog app published.
func (t *traceRun) newPlatform(ctx context.Context, dir string) (*platform, time.Duration, error) {
	pl, replay, err := t.buildPlatform(ctx, dir)
	if err != nil && pl != nil {
		pl.close()
	}
	return pl, replay, err
}

func (t *traceRun) buildPlatform(ctx context.Context, dir string) (*platform, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	pl := &platform{dir: dir, ln: ln, base: "http://" + ln.Addr().String()}
	pl.p = core.New(core.Config{Seed: 1, ClickBase: pl.base + "/click", CacheMB: 64,
		HTTPClient: &http.Client{Transport: t.rt}})
	gq, err := demo.GamerQueen(pl.p, 1, 10)
	if err != nil {
		return pl, 0, err
	}
	pl.scens = append(pl.scens, gq)
	for _, f := range []func(*core.Platform, int64, int) (*demo.Scenario, error){demo.WineFinder, demo.VideoStore} {
		s, err := f(pl.p, 1, 10)
		if err != nil {
			return pl, 0, err
		}
		pl.scens = append(pl.scens, s)
	}
	if pl.cp, err = pl.p.NewCheckpointer(dir, 0); err != nil {
		return pl, 0, err
	}
	pl.cp.MMap = true
	start := time.Now()
	if _, err := pl.cp.RestoreLatestContext(ctx); err != nil {
		return pl, 0, err
	}
	t.restores = append(t.restores, ms(time.Since(start)))
	t.tr.add("core.restore", 0, 0, start, time.Now())
	start = time.Now()
	if _, err := pl.cp.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyGroup}); err != nil {
		return pl, 0, err
	}
	replay := time.Since(start)
	t.tr.add("core.enable_wal", 0, 0, start, time.Now())
	pl.app = &app.Application{}
	if err := json.Unmarshal([]byte(catalogApp), pl.app); err != nil {
		return pl, 0, err
	}
	if err := pl.p.Registry.Publish(pl.app); err != nil {
		return pl, 0, err
	}
	return pl, replay, nil
}

// fresh returns a platform restored from the loaded catalog's snapshot
// in a new directory.
func (t *traceRun) fresh(ctx context.Context, name string) (*platform, error) {
	dir := filepath.Join(t.dir, "trace-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(t.snapshot)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "store.snap"), b, 0o644); err != nil {
		return nil, err
	}
	pl, _, err := t.newPlatform(ctx, dir)
	return pl, err
}

// loadSnapshot bulk-loads the catalog into a platform without a WAL
// and checkpoints it; every pass restores from that snapshot.
func (t *traceRun) loadSnapshot(ctx context.Context) error {
	dir := filepath.Join(t.dir, "trace-load")
	p := core.New(core.Config{Seed: 1, CacheMB: 64})
	for _, f := range []func(*core.Platform, int64, int) (*demo.Scenario, error){demo.GamerQueen, demo.WineFinder, demo.VideoStore} {
		s, err := f(p, 1, 10)
		if err != nil {
			return err
		}
		s.Close()
	}
	for i, body := range t.cat.loadBatches() {
		if _, err := p.Upload(uploadOptions(), bytes.NewReader(body)); err != nil {
			return fmt.Errorf("load batch %d: %w", i, err)
		}
	}
	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		return err
	}
	if err := cp.CheckpointContext(ctx); err != nil {
		return err
	}
	t.snapshot = cp.Path()
	return nil
}

func uploadOptions() ingest.Options {
	return ingest.Options{Tenant: "gamerqueen", Actor: "ann", Dataset: "catalog", Format: ingest.FormatCSV, KeyField: "sku"}
}

// appFor returns the app a query of the stream goes to.
func (t *traceRun) appFor(pl *platform, qi int) (*app.Application, string) {
	if t.w.demo {
		q := t.pageQ[qi%len(t.pageQ)]
		a, _ := pl.p.Registry.Get(q.app)
		return a, q.text
	}
	return pl.app, t.catQ[qi%len(t.catQ)].text
}

// counters is a snapshot of every public counter a pass differences.
type counters struct {
	cache    index.CacheStats
	exec     index.ExecutorStats
	scored   uint64
	skipped  uint64
	wal      wal.Stats
	mem      goruntime.MemStats
	admitted host.AdmissionStats
}

func readCounters(pl *platform) counters {
	var c counters
	c.cache = pl.p.Cache.Stats()
	c.exec = index.GetExecutorStats()
	for _, st := range pl.p.Store.Status() {
		c.scored += st.PostingsScored
		c.skipped += st.PostingsSkipped
	}
	if l := pl.cp.WAL(); l != nil {
		c.wal = l.Stats()
	}
	goruntime.ReadMemStats(&c.mem)
	return c
}

// httpPass replays the sequence through the HTTP mux served on
// loopback. With traced, each request records a client span and a
// handler span, and page answers are checked.
func (t *traceRun) httpPass(ctx context.Context, traced bool) (map[string]float64, error) {
	name := "http"
	if traced {
		name = "traced"
	}
	t.tr.pass = name
	pl, err := t.fresh(ctx, name)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	inner := pl.p.ServeWith(pl.base, core.ServeOptions{
		QueryTimeout: 2 * time.Second,
		Admission:    host.NewAdmissionController(host.AdmissionConfig{Slots: 4, Queue: 8, RetryAfterSeconds: 1}),
	})
	var hmu sync.Mutex
	handlerMS := map[int]float64{}
	handler := inner
	if traced {
		handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, req)
			end := time.Now()
			id, _ := strconv.Atoi(req.Header.Get("X-Bench-Req"))
			parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
			t.tr.add("host.handler", parent, id, start, end)
			hmu.Lock()
			handlerMS[id] = ms(end.Sub(start))
			hmu.Unlock()
		})
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(pl.ln)
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	get := func(qi, span int) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.queryURL(pl.base, qi), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Bench-Req", strconv.Itoa(qi))
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return body, err
	}
	for qi := 0; qi < warmQueries; qi++ {
		if _, err := get(qi, 0); err != nil {
			return nil, fmt.Errorf("%s pass warm-up: %w", name, err)
		}
	}
	// The traced pass keeps the run's upload model, which its marker
	// checks read; the untraced pass generates the same batches apart.
	up := newUploads(t.cat, t.seed)
	if traced {
		up = t.up
	}
	c0 := readCounters(pl)
	var lat, transport []float64
	queries := 0
	passStart := time.Now()
	var queryTime time.Duration
	for _, op := range t.ops {
		if op.batch >= 0 {
			b := up.next()
			if traced {
				t.batches = append(t.batches, b.body)
			}
			start := time.Now()
			st, body, err := fetch(ctx, client, http.MethodPost,
				pl.base+"/admin/upload?tenant=gamerqueen&dataset=catalog&format=csv&key=sku", designer, b.body)
			if err == nil && st != http.StatusOK {
				err = fmt.Errorf("upload status %d: %s", st, body)
			}
			if traced {
				t.tr.add("client.upload", 0, -1-op.batch, start, time.Now())
				t.record(kindUpload, err)
				for _, m := range b.touched {
					t.checkMarkerQuery(ctx, pl.base, m, kindMarker)
				}
			} else if err != nil {
				return nil, err
			}
			continue
		}
		span := 0
		if traced {
			span = t.tr.reserve()
		}
		start := time.Now()
		body, err := get(op.query, span)
		end := time.Now()
		queryTime += end.Sub(start)
		queries++
		lat = append(lat, ms(end.Sub(start)))
		if !traced {
			if err != nil {
				return nil, err
			}
			continue
		}
		t.tr.record(span, "client.query", 0, op.query, start, end)
		if err != nil {
			t.record(kindQuery, err)
			continue
		}
		if err := t.checkAnswer(op.query, body); err != nil {
			t.fail(kindQuery, err)
		} else {
			t.record(kindQuery, nil)
		}
		hmu.Lock()
		transport = append(transport, ms(end.Sub(start))-handlerMS[op.query])
		hmu.Unlock()
	}
	passTime := time.Since(passStart)
	c1 := readCounters(pl)
	s := summarize(lat)
	out := map[string]float64{
		"query_p50_ms": s.P50,
		"query_p99_ms": s.P99,
		"query_qps":    float64(queries) / queryTime.Seconds(),
		"pass_s":       passTime.Seconds(),
	}
	if traced {
		var hs []float64
		for id, v := range handlerMS {
			if id >= warmQueries {
				hs = append(hs, v)
			}
		}
		q := float64(queries)
		out["host.handler_ms"] = median(hs)
		out["host.transport_ms"] = median(transport)
		out["gc.pause_ms"] = float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs) / 1e6 / q * 1000
		out["gc.allocs_per_query"] = float64(c1.mem.Mallocs-c0.mem.Mallocs) / q
		out["gc.bytes_per_query"] = float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc) / q
		var mapped, materialized int64
		for _, st := range pl.p.Store.Status() {
			mapped += st.MappedBytes
			materialized += st.MaterializedBytes
		}
		out["store.mapped_mb"] = float64(mapped) / (1 << 20)
		out["store.materialized_mb"] = float64(materialized) / (1 << 20)
	}
	return out, nil
}

// stageSums adds up a page trace's stage durations by name prefix.
func stageSums(tr *runtime.Trace) (primary, supp, render float64, suppCalls int, hasSupp bool) {
	for _, s := range tr.Stages {
		d := ms(s.Duration)
		switch {
		case strings.HasPrefix(s.Name, "primary:"):
			primary += d
		case strings.HasPrefix(s.Name, "supplemental:"):
			supp += d
			suppCalls += s.Items
			hasSupp = true
		case strings.HasPrefix(s.Name, "render:"), s.Name == "format":
			render += d
		}
	}
	return
}

var verticals = map[app.SourceKind]webcorpus.Vertical{
	app.KindWebSearch:   webcorpus.VerticalWeb,
	app.KindImageSearch: webcorpus.VerticalImage,
	app.KindVideoSearch: webcorpus.VerticalVideo,
	app.KindNewsSearch:  webcorpus.VerticalNews,
}

// engineRequests rebuilds the engine requests a page's supplemental
// sources sent, the way source.EngineSource builds them.
func engineRequests(a *app.Application, resp *runtime.Response) []engine.Request {
	var out []engine.Request
	for _, blk := range resp.Blocks {
		sc, ok := a.Source(blk.SourceID)
		if !ok || sc.Layout == nil {
			continue
		}
		for _, slot := range sc.Layout.SourceSlots() {
			ssc, ok := a.Source(slot)
			v, isEngine := verticals[ssc.Kind]
			if !ok || !isEngine {
				continue
			}
			for _, item := range blk.Items {
				args := map[string]string{}
				empty := true
				for _, f := range ssc.DriveFields {
					args[f] = item[f]
					empty = empty && item[f] == ""
				}
				q := webservice.ExpandTemplate(ssc.QueryTemplate, args)
				if empty || strings.TrimSpace(q) == "" {
					continue
				}
				limit := ssc.MaxResults
				if limit <= 0 {
					limit = runtime.DefaultSupplementalLimit
				}
				out = append(out, engine.Request{Query: q, Vertical: v, Sites: ssc.Sites, AddTerms: ssc.AddTerms,
					PreferURLs: ssc.PreferURLs, Limit: limit, ResultsOnly: true})
			}
		}
	}
	return out
}

// pageStats collects what the execute pass reads from page traces.
type pageStats struct {
	execute, primary, supp, render []float64
	suppCalls, pages               int
	callPages                      int // pages over which calls were counted
	calls                          []float64
	engineReqs                     []engine.Request
}

func (t *traceRun) executePage(ctx context.Context, pl *platform, a *app.Application, text string, req int, ps *pageStats) error {
	qctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	t.curReq, t.curSpan = req, t.tr.reserve()
	start := time.Now()
	resp, err := pl.p.Executor.Execute(qctx, a, runtime.Query{Text: text})
	end := time.Now()
	if err != nil {
		return err
	}
	t.tr.record(t.curSpan, "runtime.execute", 0, req, start, end)
	primary, supp, render, calls, hasSupp := stageSums(resp.Trace)
	ps.execute = append(ps.execute, ms(end.Sub(start)))
	ps.primary = append(ps.primary, primary)
	ps.render = append(ps.render, render)
	if hasSupp {
		ps.supp = append(ps.supp, supp)
	}
	ps.suppCalls += calls
	ps.pages++
	ps.engineReqs = append(ps.engineReqs, engineRequests(a, resp)...)
	return nil
}

// executePass replays the sequence through runtime.Executor.Execute
// and ingest.Uploader.Upload. On the catalog workloads, whose app has
// no supplemental sources, it ends with a probe of demo pages so the
// supplemental, engine and web-service layers are still measured.
func (t *traceRun) executePass(ctx context.Context) (own, probe *pageStats, err error) {
	t.tr.pass = "execute"
	pl, err := t.fresh(ctx, "execute")
	if err != nil {
		return nil, nil, err
	}
	defer pl.close()
	// Web-service calls are counted over warm-up and timed pages alike:
	// the client caches prices for two seconds, so after the warm-up a
	// pass this short makes few calls.
	t.rt.take()
	warm := &pageStats{}
	for qi := 0; qi < warmQueries; qi++ {
		a, text := t.appFor(pl, qi)
		if err := t.executePage(ctx, pl, a, text, qi, warm); err != nil {
			return nil, nil, err
		}
	}
	own = &pageStats{}
	for _, op := range t.ops {
		if op.batch >= 0 {
			start := time.Now()
			if _, err := pl.p.Upload(uploadOptions(), bytes.NewReader(t.batches[op.batch])); err != nil {
				return nil, nil, err
			}
			t.tr.add("ingest.upload", 0, -1-op.batch, start, time.Now())
			continue
		}
		a, text := t.appFor(pl, op.query)
		if err := t.executePage(ctx, pl, a, text, op.query, own); err != nil {
			return nil, nil, err
		}
	}
	own.calls = t.rt.take()
	own.callPages = warm.pages + own.pages
	if !t.w.demo {
		probe = &pageStats{}
		for i, q := range pageQueries(t.seed, probePages) {
			a, _ := pl.p.Registry.Get(q.app)
			if err := t.executePage(ctx, pl, a, q.text, -1000-i, probe); err != nil {
				return nil, nil, err
			}
		}
		probe.calls = t.rt.take()
		probe.callPages = probe.pages
	}
	return own, probe, nil
}

// probePages is the demo-page probe of the catalog workloads' traced
// run.
const probePages = 300

// storePass replays the sequence one layer lower: the primary source's
// store.Dataset.SearchContext for each query, and ingest.Parse plus
// Store.AddBatchContext for each upload. It returns the platform, whose
// log tail the recover pass replays.
func (t *traceRun) storePass(ctx context.Context, out map[string]float64) (*platform, error) {
	t.tr.pass = "store"
	pl, err := t.fresh(ctx, "store")
	if err != nil {
		return nil, err
	}
	search := func(qi int) (float64, error) {
		a, text := t.appFor(pl, qi)
		sc := &a.Primary[0]
		ds, err := pl.p.Store.DatasetContext(ctx, a.Tenant, a.Owner, sc.Dataset, store.PermRead)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = ds.SearchContext(ctx, store.SearchRequest{Query: text, Fields: sc.SearchFields, Filters: sc.Filters, OrderBy: sc.OrderBy, Limit: sc.MaxResults})
		end := time.Now()
		t.tr.add("store.search", 0, qi, start, end)
		return ms(end.Sub(start)), err
	}
	for qi := 0; qi < warmQueries; qi++ {
		if _, err := search(qi); err != nil {
			return pl, err
		}
	}
	c0 := readCounters(pl)
	var searches, parses, adds []float64
	records := 0
	for _, op := range t.ops {
		if op.batch < 0 {
			d, err := search(op.query)
			if err != nil {
				return pl, err
			}
			searches = append(searches, d)
			continue
		}
		start := time.Now()
		recs, err := ingest.Parse(ingest.FormatCSV, bytes.NewReader(t.batches[op.batch]))
		mid := time.Now()
		if err != nil {
			return pl, err
		}
		if _, err := pl.p.Store.AddBatchContext(ctx, "gamerqueen", "ann", "catalog", recs); err != nil {
			return pl, err
		}
		end := time.Now()
		t.tr.add("ingest.parse", 0, -1-op.batch, start, mid)
		t.tr.add("store.addbatch", 0, -1-op.batch, mid, end)
		parses = append(parses, ms(mid.Sub(start)))
		adds = append(adds, ms(end.Sub(mid)))
		records += len(recs)
	}
	c1 := readCounters(pl)
	q, nb := float64(len(searches)), float64(len(adds))
	s := summarize(searches)
	out["store.search_ms"] = s.P50
	out["store.search_p99_ms"] = s.P99
	out["store.addbatch_ms"] = median(adds)
	out["ingest.parse_ms"] = median(parses)
	out["wal.fsyncs_per_batch"] = float64(c1.wal.Fsyncs-c0.wal.Fsyncs) / nb
	out["wal.bytes_per_record"] = float64(c1.wal.BytesAppended-c0.wal.BytesAppended) / float64(records)
	out["index.postings_scored"] = float64(c1.scored-c0.scored) / q
	out["index.postings_skipped"] = float64(c1.skipped-c0.skipped) / q
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	out["index.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	out["index.cache_evictions"] = float64(c1.cache.Evicted-c0.cache.Evicted) / q * 1000
	out["index.cache_invalidations"] = float64(c1.cache.Invalidated-c0.cache.Invalidated) / nb
	par, inl := c1.exec.Parallel-c0.exec.Parallel, c1.exec.Inline-c0.exec.Inline
	out["index.exec_parallel_ratio"] = float64(par) / float64(par+inl)
	out["index.exec_steals"] = float64(c1.exec.Stolen-c0.exec.Stolen) / q
	return pl, nil
}

// enginePass replays engine requests through engine.Engine.Query.
func (t *traceRun) enginePass(ctx context.Context, reqs []engine.Request) (float64, error) {
	t.tr.pass = "engine"
	pl, err := t.fresh(ctx, "engine")
	if err != nil {
		return 0, err
	}
	defer pl.close()
	var ds []float64
	for i, req := range reqs {
		start := time.Now()
		if _, err := pl.p.Engine.Query(ctx, req); err != nil {
			return 0, err
		}
		end := time.Now()
		t.tr.add("engine.query", 0, i, start, end)
		ds = append(ds, ms(end.Sub(start)))
	}
	return median(ds), nil
}

// recoverPass abandons the store pass's platform without a final
// checkpoint, as SIGKILL would, then restores its directory, replays
// the log tail and checkpoints the written catalog.
func (t *traceRun) recoverPass(ctx context.Context, old *platform, out map[string]float64) error {
	t.tr.pass = "recover"
	old.close()
	pl, replay, err := t.newPlatform(ctx, old.dir)
	if err != nil {
		return err
	}
	defer pl.close()
	out["core.wal_replay_ms"] = ms(replay)
	start := time.Now()
	if err := pl.cp.CheckpointContext(ctx); err != nil {
		return err
	}
	end := time.Now()
	t.tr.add("core.checkpoint", 0, 0, start, end)
	out["core.checkpoint_ms"] = ms(end.Sub(start))
	return nil
}

// perLayerUnits gives every per-layer metric its unit.
var perLayerUnits = map[string]string{
	"host.handler_ms":            "ms",
	"host.transport_ms":          "ms",
	"runtime.execute_ms":         "ms",
	"runtime.primary_ms":         "ms",
	"runtime.supplemental_ms":    "ms",
	"runtime.supplemental_calls": "count",
	"runtime.render_ms":          "ms",
	"store.search_ms":            "ms",
	"store.search_p99_ms":        "ms",
	"store.addbatch_ms":          "ms",
	"store.mapped_mb":            "MB",
	"store.materialized_mb":      "MB",
	"index.postings_scored":      "count",
	"index.postings_skipped":     "count",
	"index.cache_hit_ratio":      "ratio",
	"index.cache_evictions":      "count",
	"index.cache_invalidations":  "count",
	"index.exec_parallel_ratio":  "ratio",
	"index.exec_steals":          "count",
	"engine.query_ms":            "ms",
	"webservice.calls":           "count",
	"webservice.call_ms":         "ms",
	"ingest.parse_ms":            "ms",
	"wal.fsyncs_per_batch":       "count",
	"wal.bytes_per_record":       "bytes",
	"core.checkpoint_ms":         "ms",
	"core.restore_ms":            "ms",
	"core.wal_replay_ms":         "ms",
	"gc.pause_ms":                "ms",
	"gc.allocs_per_query":        "count",
	"gc.bytes_per_query":         "bytes",
}

func runTrace(ctx context.Context, r *e2e, seconds float64) (*traceResult, error) {
	t := &traceRun{e2e: r, tr: &tracer{t0: time.Now()}}
	t.rt = &countingTransport{tr: t.tr, req: &t.curReq, span: &t.curSpan}
	t.ops = r.traceOps(seconds)
	start := time.Now()
	if err := t.loadSnapshot(ctx); err != nil {
		return nil, fmt.Errorf("trace set-up: %w", err)
	}
	setup := time.Since(start)
	plain, err := t.httpPass(ctx, false)
	if err != nil {
		return nil, err
	}
	traced, err := t.httpPass(ctx, true)
	if err != nil {
		return nil, err
	}
	own, probe, err := t.executePass(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, k := range []string{"host.handler_ms", "host.transport_ms", "gc.pause_ms", "gc.allocs_per_query",
		"gc.bytes_per_query", "store.mapped_mb", "store.materialized_mb"} {
		out[k] = traced[k]
	}
	st, err := t.storePass(ctx, out)
	if err != nil {
		return nil, err
	}
	if err := t.recoverPass(ctx, st, out); err != nil {
		return nil, err
	}
	// Supplemental, engine and web-service numbers come from the
	// workload's own pages, or from the demo probe when its pages have
	// no supplemental sources.
	supp, suppFrom := own, "workload pages"
	if probe != nil {
		supp, suppFrom = probe, fmt.Sprintf("demo-page probe (%d pages)", probePages)
	}
	if out["engine.query_ms"], err = t.enginePass(ctx, supp.engineReqs); err != nil {
		return nil, err
	}
	out["runtime.execute_ms"] = median(own.execute)
	out["runtime.primary_ms"] = median(own.primary)
	out["runtime.render_ms"] = median(own.render)
	out["runtime.supplemental_ms"] = median(supp.supp)
	out["runtime.supplemental_calls"] = float64(supp.suppCalls) / float64(supp.pages)
	out["webservice.calls"] = float64(len(supp.calls)) / float64(supp.callPages)
	out["webservice.call_ms"] = median(supp.calls)
	out["core.restore_ms"] = median(t.restores)

	metrics := map[string]metric{}
	for k, unit := range perLayerUnits {
		v, ok := out[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s not measured (%v)", k, v)
		}
		metrics[k] = metric{v, unit}
	}
	spans := filepath.Join(filepath.Dir(t.dir), "traces", fmt.Sprintf("%s-seed%d.jsonl", t.w.name, t.seed))
	if err := t.tr.write(spans); err != nil {
		return nil, err
	}
	info := map[string]any{
		"http_pass_untraced":       plain,
		"http_pass_traced":         map[string]float64{"query_p50_ms": traced["query_p50_ms"], "query_p99_ms": traced["query_p99_ms"], "query_qps": traced["query_qps"], "pass_s": traced["pass_s"]},
		"tracing_overhead_p50_pct": 100 * (traced["query_p50_ms"]/plain["query_p50_ms"] - 1),
		"supplemental_source":      suppFrom,
		"sequence_ops":             len(t.ops),
		"trace_setup_s":            setup.Seconds(),
		"spans":                    len(t.tr.spans),
		"spans_file":               spans,
		"self_ms":                  t.selfTimes(),
	}
	return &traceResult{metrics: metrics, info: info}, nil
}

// selfTimes reports, per layer, the median over requests of the layer's
// time minus the same request's time in the layer below: host is the
// handler less Executor.Execute, runtime is Execute less the primary
// source's SearchContext.
func (t *traceRun) selfTimes() map[string]float64 {
	by := func(pass, name string) map[int]float64 {
		m := map[int]float64{}
		for _, s := range t.tr.spans {
			if s.Pass == pass && s.Name == name {
				m[s.Req] = s.End - s.Start
			}
		}
		return m
	}
	handler, exec, search := by("traced", "host.handler"), by("execute", "runtime.execute"), by("store", "store.search")
	var host, rt []float64
	for req, h := range handler {
		if e, ok := exec[req]; ok && req >= warmQueries {
			host = append(host, h-e)
			if s, ok := search[req]; ok {
				rt = append(rt, e-s)
			}
		}
	}
	return map[string]float64{"host": median(host), "runtime": median(rt)}
}
