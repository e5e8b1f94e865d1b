package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The end-to-end run drives a symphonyd child over loopback with the
// daemon's public surface only: /query, /admin/upload, /admin/publish,
// /apps, SIGTERM and SIGKILL.

const (
	// crashPhase is the load phase that ends in SIGKILL; crashEvery is
	// its upload period.
	crashPhase = 3 * time.Second
	crashEvery = 100 * time.Millisecond
	// bootRepeats is how many mapped restarts boot_s is the median of.
	bootRepeats = 5
	// warmQueries are answered untimed before timing starts, so caches
	// hold the stream's popular queries and mapped pages are faulted in.
	warmQueries = 400
	// queryStream is the length of each generated query stream.
	queryStream = 100000
)

// op kinds, for attempted/failed accounting.
const (
	kindQuery  = "query"
	kindUpload = "upload"
	kindMarker = "marker_check"
	kindVerify = "recovery_check"
)

type counts struct{ Attempted, Failed int }

// e2e holds one end-to-end run's state.
type e2e struct {
	w       workload
	seed    int64
	bin     string
	dir     string
	nproc   int
	client  *http.Client
	cat     *catalog
	catQ    []catQuery
	pageQ   []pageQuery
	up      *uploads
	flags   []string
	nextQ   int // next index into the query stream
	mu      sync.Mutex
	ops     map[string]*counts
	errs    []string
	correct bool
	// uploadLat and crashUploadLat hold re-upload acknowledgement
	// latencies from due time, in the timed phases and the crash phase.
	uploadLat, crashUploadLat []float64
	// acked lists the markers of acknowledged batches; inFlight is the
	// batch sent and not yet acknowledged.
	acked     []int
	inFlight  *uploadBatch
	uploadsMu sync.Mutex // serializes batches: one in flight at a time
}

func (r *e2e) record(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[kind]
	if c == nil {
		c = &counts{}
		r.ops[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, kind+": "+err.Error())
		}
	}
}

// fail records a wrong answer: the operation failed and the run is
// incorrect.
func (r *e2e) fail(kind string, err error) {
	r.record(kind, err)
	r.mu.Lock()
	r.correct = false
	r.mu.Unlock()
}

// startServing starts a daemon over dir, waits until it serves and
// publishes the catalog app, returning the time from process start to
// the first 200 from the catalog app.
func (r *e2e) startServing(ctx context.Context, dataDir string) (*daemon, time.Duration, error) {
	d, err := startDaemon(r.bin, dataDir, filepath.Join(r.dir, "symphonyd.log"), r.flags)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(r.client, 60*time.Second); err != nil {
		return d, 0, err
	}
	if err := publish(ctx, r.client, d.base); err != nil {
		return d, 0, err
	}
	// A brand word: no query stream uses brands, so the probe warms no
	// cache entry the timed queries could hit.
	st, body, err := fetch(ctx, r.client, http.MethodGet, d.base+"/query?app=catalog&q="+r.cat.brands[0], nil, nil)
	if err != nil {
		return d, 0, err
	}
	if st != http.StatusOK {
		return d, 0, fmt.Errorf("first catalog query: status %d: %s", st, body)
	}
	return d, time.Since(d.started), nil
}

// bulkLoad uploads the catalog through nproc connections, first batch
// alone (it creates the dataset). It returns the median of the
// records-per-second rates of the load's five consecutive fifths, so
// one slow stretch (a GC cycle, a slow fsync) does not decide it.
func (r *e2e) bulkLoad(ctx context.Context, base string, bodies [][]byte) (float64, error) {
	start := time.Now()
	rows := func(i int) int {
		return min(batchSize, len(r.cat.recs)-i*batchSize)
	}
	var mu sync.Mutex
	var acks []time.Time // ack time of each batch, all of batchSize rows but the last
	ack := func() {
		mu.Lock()
		acks = append(acks, time.Now())
		mu.Unlock()
	}
	if err := upload(ctx, r.client, base, bodies[0], rows(0)); err != nil {
		return 0, err
	}
	ack()
	var wg sync.WaitGroup
	next := 0
	errc := make(chan error, r.nproc)
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				next++
				i := next
				mu.Unlock()
				if i >= len(bodies) {
					return
				}
				if err := upload(ctx, r.client, base, bodies[i], rows(i)); err != nil {
					errc <- err
					return
				}
				ack()
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return 0, err
	}
	return medianRate(start, acks, batchSize), nil
}

type setupResult struct {
	ingestRPS float64
	// ingestCPU is the daemon's CPU ms per 1k records bulk-loaded.
	ingestCPU float64
	// replayBoot is the first restart after the bulk load; boots are the
	// restarts after it.
	replayBoot time.Duration
	boots      []float64
	// bootCPU holds each mapped boot's CPU seconds by its first 200.
	bootCPU []float64
}

// setup runs the set-up on a fresh data dir: boot, bulk load, publish,
// SIGTERM (final checkpoint), then bootRepeats+1 restarts, each ending
// in SIGTERM but the last. The first restart replays the load from the
// log (see README.md); the others attach the mapped snapshot, and the
// median of their CPU time by the first 200 is boot_cpu_s. The last
// daemon is warmed up and returned.
func (r *e2e) setup(ctx context.Context, dataDir string) (*daemon, setupResult, error) {
	var res setupResult
	d, err := r.startWithoutApp(dataDir)
	if err != nil {
		return d, res, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return d, res, err
	}
	if res.ingestRPS, err = r.bulkLoad(ctx, d.base, r.cat.loadBatches()); err != nil {
		return d, res, fmt.Errorf("bulk load: %w", err)
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return d, res, err
	}
	res.ingestCPU = (cpu1 - cpu0) * 1000 / (float64(len(r.cat.recs)) / 1000)
	if err := publish(ctx, r.client, d.base); err != nil {
		return d, res, err
	}
	for i := 0; i <= bootRepeats; i++ {
		if err := d.stop(syscall.SIGTERM, 60*time.Second); err != nil {
			return nil, res, err
		}
		var boot time.Duration
		d, boot, err = r.startServing(ctx, dataDir)
		if err != nil {
			return d, res, fmt.Errorf("restart: %w", err)
		}
		if i == 0 {
			res.replayBoot = boot
			continue
		}
		cpu, err := d.cpuSeconds()
		if err != nil {
			return d, res, err
		}
		res.boots = append(res.boots, boot.Seconds())
		res.bootCPU = append(res.bootCPU, cpu)
	}
	// A workload that uploads while timed sends one batch first: the
	// first write copies the mapped catalog to the heap, a one-off cost.
	if r.w.uploadEvery > 0 {
		r.reupload(ctx, d.base, time.Now())
		r.uploadLat = nil
	}
	r.nextQ = 0
	for i := 0; i < warmQueries; i++ {
		if _, _, err := r.query(ctx, d.base, i); err != nil {
			return d, res, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.nextQ = warmQueries
	return d, res, nil
}

// startWithoutApp starts a daemon over dir and waits until it serves.
func (r *e2e) startWithoutApp(dataDir string) (*daemon, error) {
	d, err := startDaemon(r.bin, dataDir, filepath.Join(r.dir, "symphonyd.log"), r.flags)
	if err != nil {
		return nil, err
	}
	return d, d.waitReady(r.client, 60*time.Second)
}

// queryURL returns the request of stream position i.
func (r *e2e) queryURL(base string, i int) string {
	if r.w.demo {
		q := r.pageQ[i%len(r.pageQ)]
		u := base + "/query?app=" + q.app + "&q=" + url.QueryEscape(q.text)
		if q.json {
			u += "&format=json"
		}
		return u
	}
	return base + "/query?app=catalog&q=" + url.QueryEscape(r.catQ[i%len(r.catQ)].text)
}

// query sends stream position i and returns the answer body.
func (r *e2e) query(ctx context.Context, base string, i int) (int, []byte, error) {
	st, body, err := fetch(ctx, r.client, http.MethodGet, r.queryURL(base, i), nil, nil)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", st, body)
	}
	return st, body, err
}

// checkAnswer checks the page answered for stream position i.
func (r *e2e) checkAnswer(i int, body []byte) error {
	if r.w.demo {
		return checkDemoPage(r.pageQ[i%len(r.pageQ)], body)
	}
	return r.cat.checkCatalogQuery(r.catQ[i%len(r.catQ)], string(body))
}

// phaseResult is what a load phase measured.
type phaseResult struct {
	done    []time.Time   // when each query answered 200 came back
	elapsed time.Duration // from phase start until the last worker stopped
	lat     openLoop
}

// runPhase drives one load phase with nproc workers until end, or with
// arrivals until the last arrival is answered. With
// arrivals (offsets in seconds from start) it is open-loop: each query
// is due at its arrival and timed from then. Without, it is
// closed-loop: each worker sends its next query when the last is
// answered. With uploadEvery > 0, re-upload batches fall due on that
// period and take precedence over queries.
func (r *e2e) runPhase(ctx context.Context, base string, start, end time.Time, arrivals []float64, uploadEvery time.Duration) phaseResult {
	var mu sync.Mutex
	var res phaseResult
	nextArrival := 0
	uploads := 0
	uploadBusy := false
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				var due time.Time
				found, isUpload := false, false
				qi := -1
				if uploadEvery > 0 && !uploadBusy {
					found, isUpload = true, true
					due = start.Add(time.Duration(uploads+1) * uploadEvery)
				}
				if arrivals != nil && nextArrival < len(arrivals) {
					qDue := start.Add(time.Duration(arrivals[nextArrival] * float64(time.Second)))
					if !found || qDue.Before(due) {
						found, isUpload, due = true, false, qDue
					}
				} else if arrivals != nil && isUpload {
					// Arrivals are exhausted: no uploads after the last query.
					found = false
				} else if arrivals == nil && (!found || time.Now().Before(due)) {
					found, isUpload, due = true, false, time.Now()
				}
				if !found || (!end.IsZero() && !due.Before(end)) {
					mu.Unlock()
					return
				}
				if isUpload {
					uploads++
					uploadBusy = true
				} else {
					qi = r.nextQ
					r.nextQ++
					if arrivals != nil {
						nextArrival++
					}
				}
				mu.Unlock()
				time.Sleep(time.Until(due))
				if isUpload {
					r.reupload(ctx, base, due)
					mu.Lock()
					uploadBusy = false
					mu.Unlock()
					continue
				}
				sent := time.Now()
				_, body, err := r.query(ctx, base, qi)
				doneAt := time.Now()
				if err != nil {
					r.record(kindQuery, err)
					continue
				}
				mu.Lock()
				res.done = append(res.done, doneAt)
				res.lat.add(due, sent, doneAt)
				mu.Unlock()
				// Checked after its time is taken; keeping pages for later
				// would make this process's own GC compete with the daemon.
				if err := r.checkAnswer(qi, body); err != nil {
					r.fail(kindQuery, err)
				} else {
					r.record(kindQuery, nil)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// chunkRate cuts the phase's answers, in completion order, into five
// runs of equal count and returns the median of their rates, so one
// stalled stretch does not decide the throughput.
func (p phaseResult) chunkRate(start time.Time) float64 {
	return medianRate(start, p.done, 1)
}

// medianRate returns the median rate of five equal-count runs of the
// completion times ts, each completion worth per units.
func medianRate(start time.Time, ts []time.Time, per float64) float64 {
	ts = append([]time.Time(nil), ts...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	var rates []float64
	from := start
	for k := 1; k <= 5; k++ {
		end := ts[k*len(ts)/5-1]
		rates = append(rates, float64(len(ts)/5)*per/end.Sub(from).Seconds())
		from = end
	}
	return median(rates)
}

// reupload sends the next batch (due at due) and then checks every
// marker the batch changed against the model.
func (r *e2e) reupload(ctx context.Context, base string, due time.Time) {
	r.uploadsMu.Lock()
	defer r.uploadsMu.Unlock()
	b := r.up.next()
	r.mu.Lock()
	r.inFlight = b
	r.mu.Unlock()
	err := upload(ctx, r.client, base, b.body, batchSize)
	lat := ms(time.Since(due))
	r.record(kindUpload, err)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.inFlight = nil
	r.uploadLat = append(r.uploadLat, lat)
	r.acked = append(r.acked, b.touched...)
	r.mu.Unlock()
	for _, m := range b.touched {
		r.checkMarkerQuery(ctx, base, m, kindMarker)
	}
}

func (r *e2e) checkMarkerQuery(ctx context.Context, base string, m int, kind string) {
	st, body, err := fetch(ctx, r.client, http.MethodGet, base+"/query?app=catalog&q="+marker(m), nil, nil)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("marker query status %d", st)
	}
	if err != nil {
		r.record(kind, err)
		return
	}
	if err := checkMarker(m, string(body), r.up.expect(m)); err != nil {
		r.fail(kind, err)
		return
	}
	r.record(kind, nil)
}

// e2eResult is the end-to-end metrics plus what the info line shows.
type e2eResult struct {
	metrics map[string]metric
	info    map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *e2e) run(ctx context.Context, seconds float64, procStart time.Time) (*e2eResult, error) {
	dataDir := filepath.Join(r.dir, "data")
	d, setup, err := r.setup(ctx, dataDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(procStart).Seconds()
	// With periodic checkpoints, timing starts halfway between two of
	// them, counted from the daemon's start, so every run's phases and
	// uploads meet the checkpoints at the same offsets. The wait is not
	// set-up work and is left out of setup_s.
	time.Sleep(time.Until(r.midInterval(d, time.Now())))

	closedDur := time.Duration(seconds * float64(time.Second) * closedShare)
	openDur := time.Duration(seconds*float64(time.Second)) - closedDur
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	total0, steal0 := cpuTicks()
	t0 := time.Now()
	closed := r.runPhase(ctx, d.base, t0, t0.Add(closedDur), nil, r.w.uploadEvery)
	// The open-loop phase sends a fixed number of arrivals, so every run
	// has the same sample count; it ends when the last is answered.
	t1 := time.Now()
	arrivals := poissonArrivals(r.seed, r.w.rate, int(r.w.rate*openDur.Seconds()))
	open := r.runPhase(ctx, d.base, t1, time.Time{}, arrivals, r.w.uploadEvery)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cpuPerQuery := (cpu1 - cpu0) * 1000 / float64(len(closed.done)+len(open.done))
	total1, steal1 := cpuTicks()

	// Crash phase: re-uploads every crashEvery, then SIGKILL with one in
	// flight or due. The first write to a still-mapped catalog copies it to the heap,
	// a one-off cost: one batch goes first, outside the measured uploads.
	if r.w.uploadEvery == 0 {
		r.reupload(ctx, d.base, time.Now())
	}
	t2 := time.Now()
	killed := make(chan struct{})
	var crashWG sync.WaitGroup
	crashWG.Add(1)
	go func() {
		defer crashWG.Done()
		r.crashLoad(ctx, d.base, t2, killed)
	}()
	time.Sleep(time.Until(r.killTime(d, t2)))
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Close killed first: from here on an error is the kill's doing.
	close(killed)
	if err := d.stop(syscall.SIGKILL, 10*time.Second); err != nil {
		return nil, err
	}
	crashWG.Wait()

	d3, recovery, err := r.startServing(ctx, dataDir)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recoveryCPU, err := d3.cpuSeconds()
	if err != nil {
		return nil, err
	}
	uncertain := map[int]bool{}
	if r.inFlight != nil {
		for _, m := range r.inFlight.touched {
			uncertain[m] = true
		}
	}
	seen := map[int]bool{}
	var check []int
	for _, m := range r.acked {
		if !uncertain[m] && !seen[m] {
			seen[m] = true
			check = append(check, m)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(check); i += r.nproc {
				r.checkMarkerQuery(ctx, d3.base, check[i], kindVerify)
			}
		}()
	}
	wg.Wait()
	if err := d3.stop(syscall.SIGTERM, 60*time.Second); err != nil {
		return nil, err
	}

	// A workload that uploads while timed reports those uploads; the
	// others report the crash phase's.
	uploadLat := r.uploadLat
	if r.w.uploadEvery == 0 {
		uploadLat = r.crashUploadLat
	}
	openSum := summarize(open.lat.latencyMS)
	late := summarize(open.lat.lateMS)
	res := &e2eResult{
		metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"query_cpu_ms":   {cpuPerQuery, "ms"},
			"rss_mb":         {rss, "MB"},
			"ingest_cpu_ms":  {setup.ingestCPU, "ms"},
			"boot_cpu_s":     {median(setup.bootCPU), "s"},
			"recovery_cpu_s": {recoveryCPU, "s"},
		},
		info: map[string]any{
			"open_loop":               openSum,
			"open_loop_rate":          r.w.rate,
			"generator_lateness_ms":   late,
			"closed_loop_queries":     len(closed.done),
			"closed_loop_qps":         closed.chunkRate(t0),
			"ingest_rps":              setup.ingestRPS,
			"recovery_s":              recovery.Seconds(),
			"upload_p50_ms":           median(uploadLat),
			"host_steal_pct":          100 * (steal1 - steal0) / (total1 - total0),
			"upload_latency_ms":       summarize(uploadLat),
			"crash_upload_latency_ms": summarize(r.crashUploadLat),
			"boot_s":                  median(setup.boots),
			"boots_s":                 setup.boots,
			"first_restart_s":         setup.replayBoot.Seconds(),
			"markers_uncertain":       len(uncertain),
		},
	}
	return res, nil
}

// killTime returns when the crash phase that began at start ends: after
// crashPhase, or with periodic checkpoints at the first midpoint
// between two of them after most of crashPhase, so the log tail that
// recovery replays holds the same stretch of writes in every run.
func (r *e2e) killTime(d *daemon, start time.Time) time.Time {
	if r.w.checkpoint == 0 {
		return start.Add(crashPhase)
	}
	return r.midInterval(d, start.Add(crashPhase*3/4))
}

// midInterval returns the first instant at or after t that lies halfway
// between two periodic checkpoints of d, counted from its start; t
// itself without periodic checkpoints.
func (r *e2e) midInterval(d *daemon, t time.Time) time.Time {
	iv := r.w.checkpoint
	if iv == 0 {
		return t
	}
	m := d.started.Add(iv/2 + t.Sub(d.started.Add(iv/2))/iv*iv)
	for m.Before(t) {
		m = m.Add(iv)
	}
	return m
}

// crashLoad sends a re-upload batch every crashEvery until killed. A
// batch the kill cuts off stays in flight: neither attempted nor
// failed, and its markers are not checked after recovery.
func (r *e2e) crashLoad(ctx context.Context, base string, start time.Time, killed <-chan struct{}) {
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * crashEvery)
		select {
		case <-killed:
			return
		case <-time.After(time.Until(due)):
		}
		r.uploadsMu.Lock()
		b := r.up.next()
		r.mu.Lock()
		r.inFlight = b
		r.mu.Unlock()
		err := upload(ctx, r.client, base, b.body, batchSize)
		lat := ms(time.Since(due))
		r.uploadsMu.Unlock()
		select {
		case <-killed:
			return
		default:
		}
		r.record(kindUpload, err)
		if err != nil {
			return
		}
		r.mu.Lock()
		r.inFlight = nil
		r.crashUploadLat = append(r.crashUploadLat, lat)
		r.acked = append(r.acked, b.touched...)
		r.mu.Unlock()
	}
}

func sortedKinds(m map[string]*counts) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
