package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/trace"
)

// serveShape sizes the serving workload: the sessions are every
// (circuit, fault seed) pair, each with a pool of tests whose rotating
// windows form the request test-sets.
type serveShape struct {
	circuits    []string
	faultSeeds  []int64
	tests       int // test pool per session
	window      int // tests per request
	maxSessions int // warm pool bound, below the session count
	batch       int // requests per batch_s block
}

func shapeFor(size string) serveShape {
	if size == "tiny" {
		return serveShape{circuits: []string{"s298x", "s400x"}, faultSeeds: []int64{1, 2}, tests: 8, window: 4,
			maxSessions: 3, batch: 10}
	}
	return serveShape{circuits: []string{"s298x", "s400x", "s526x", "s1423x"}, faultSeeds: []int64{1, 2, 3}, tests: 16, window: 8,
		maxSessions: 8, batch: 100}
}

// The request mix. Each client deals its requests from a deck of
// deckSize (session, kind) cards, reshuffled by the seed whenever it runs
// out, so every run sends the same mix in a different order. Sessions are
// dealt Zipf-skewed (exponent zipfS) over the client's own sessions; of
// the kinds, 10% are cold cov or cegar requests, 20% edits, 70% warm reads.
const (
	deckSize = 200
	zipfS    = 1.2
	clients  = maxProcs
)

// kindCards sums to deckSize.
var kindCards = []struct {
	kind string
	n    int
}{{"cov", 10}, {"cegar", 10}, {"edit", 40}, {"read", 140}}

// serveSession is one faulty circuit with its pre-encoded request
// bodies, indexed by window rotation r (tests r .. r+window-1 of the
// pool, modulo its size).
type serveSession struct {
	name  string
	owner int // the only client that sends requests for this session
	bench string
	circ  *circuit.Circuit // parsed from bench, as the server sees it
	tests circuit.TestSet

	read, cov, cegar, edit [][]byte
}

func (s *serveSession) windowTests(r, w int) circuit.TestSet {
	out := make(circuit.TestSet, w)
	for i := range out {
		out[i] = s.tests[(r+i)%len(s.tests)]
	}
	return out
}

// serveRefs are the expected answers per session and rotation.
type serveRefs struct {
	bsat, cov [][]string
	val       [][]*core.Validator
}

type answer struct {
	Mode      string  `json:"mode"`
	Solutions [][]int `json:"solutions"`
	Complete  bool    `json:"complete"`
	Session   string  `json:"session"`
	Degraded  string  `json:"degraded"`
}

type tracedAnswer struct {
	answer
	Timings *trace.SpanJSON `json:"timings"`
}

// reqRec is one logical request as its client saw it.
type reqRec struct {
	kind       string // read | edit | cold
	engine     string // bsat | cov | cegar
	sess, rot  int    // the session and the rotation the answer must match
	start, end time.Time
	status     int
	err        error
	ans        answer
	timings    *trace.SpanJSON
	evicted    bool // an edit whose session was evicted, retried as /diagnose
}

func (r reqRec) ms() float64 { return ms(r.end.Sub(r.start)) }

type client struct {
	rng   *rand.Rand
	owned []int // session indices, most popular first
	// The deck: card i pairs sessions[i] with kinds[i].
	sessions []int
	kinds    []string
	next     int
	id       map[int]string // warm-session id per owned session ("" = unknown)
	rot      map[int]int    // the rotation the server's session currently holds
}

type serveBench struct {
	cfg      config
	shape    serveShape
	sessions []*serveSession
	refs     serveRefs
	log      io.Writer

	dir     string
	jw      *journal.Writer
	srv     *service.Server
	ts      *httptest.Server
	http    *http.Client
	clients []*client
	warmup  []reqRec
}

func runServe(cfg config, log io.Writer) (map[string]float64, gate, error) {
	b := &serveBench{cfg: cfg, shape: shapeFor(cfg.size), log: log}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, gate{}, err
	}
	// Set-up: scenario generation and request encoding, then
	// server and journal start and warm-up. References are computed once,
	// between the first generation and the first server start, and are
	// not part of setup_s.
	var setups []float64
	var refSeconds float64
	for rep := range serveSetupReps {
		if rep > 0 {
			if err := b.stop(); err != nil {
				return nil, gate{}, err
			}
		}
		start := time.Now()
		if err := b.generate(); err != nil {
			return nil, gate{}, err
		}
		elapsed := time.Since(start)
		if rep == 0 {
			refStart := time.Now()
			if err := b.computeRefs(); err != nil {
				return nil, gate{}, err
			}
			refSeconds = time.Since(refStart).Seconds()
		}
		start = time.Now()
		if err := b.start(); err != nil {
			return nil, gate{}, err
		}
		b.warmUp()
		setups = append(setups, (elapsed + time.Since(start)).Seconds())
	}
	defer b.stop()
	fmt.Fprintf(log, "# setup_s runs=%v reference_s=%.3f sessions=%d pool=%d clients=%d\n",
		setups, refSeconds, len(b.sessions), b.shape.maxSessions, clients)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	vals := map[string]float64{"setup_s": median(setups)}
	var g gate
	if !cfg.trace {
		heap := startHeapPeak()
		recs, wall := b.phase(budget, false)
		vals["heap_peak_mb"] = heap.Stop()
		b.endToEnd(vals, recs, wall)
		b.checkAll(&g, recs)
		return vals, g, nil
	}
	untraced, wall := b.phase(budget/2, false)
	e2e := map[string]float64{}
	b.endToEnd(e2e, untraced, wall)
	before, err := b.scrape()
	if err != nil {
		return nil, gate{}, err
	}
	parse := b.parseCosts()
	traced, wall := b.phase(budget/2, true)
	after, err := b.scrape()
	if err != nil {
		return nil, gate{}, err
	}
	tracedE2E := map[string]float64{}
	b.endToEnd(tracedE2E, traced, wall)
	b.layerMetrics(vals, traced, parse, before, after)
	vals["bench.trace_overhead_pct"] = 100 * ratio(tracedE2E["req_p50_ms"]-e2e["req_p50_ms"], e2e["req_p50_ms"])
	vals["bench.p99_tail_samples"] = e2e["bench.p99_tail_samples"]
	b.checkAll(&g, append(untraced, traced...))
	return vals, g, nil
}

// generate builds the sessions: scenario generation, .bench rendering
// and the pre-encoded request bodies.
func (b *serveBench) generate() error {
	sh := b.shape
	b.sessions = nil
	for fi, seed := range sh.faultSeeds {
		for ci, name := range sh.circuits {
			sc, err := expt.Prepare(expt.Config{Circuit: name, P: 1, Ms: []int{sh.tests}, Seed: seed + b.cfg.workloadSeed*seedStride})
			if err != nil {
				return fmt.Errorf("prepare %s seed %d: %w", name, seed, err)
			}
			tests := sc.Tests.Prefix(sh.tests)
			if len(tests) <= sh.window {
				return fmt.Errorf("%s seed %d exposes %d tests, need more than %d", name, seed, len(tests), sh.window)
			}
			var sb strings.Builder
			if err := circuit.WriteBench(&sb, sc.Faulty); err != nil {
				return err
			}
			parsed, err := circuit.ParseBench(name, strings.NewReader(sb.String()))
			if err != nil {
				return err
			}
			s := &serveSession{name: fmt.Sprintf("%s-f%d", name, seed+b.cfg.workloadSeed*seedStride), owner: (ci + fi) % clients,
				bench: sb.String(), circ: parsed, tests: tests}
			if err := s.encode(sh.window); err != nil {
				return err
			}
			b.sessions = append(b.sessions, s)
		}
	}
	return nil
}

func (s *serveSession) encode(w int) error {
	wire := toWire(s.tests)
	n := len(s.tests)
	for r := range n {
		win := make([]service.TestJSON, w)
		for i := range win {
			win[i] = wire[(r+i)%n]
		}
		for _, dst := range []struct {
			engine string
			out    *[][]byte
		}{{"", &s.read}, {"cov", &s.cov}, {"cegar", &s.cegar}} {
			body, err := json.Marshal(service.DiagnoseRequest{Bench: s.bench, Tests: win, Engine: dst.engine, K: 1})
			if err != nil {
				return err
			}
			*dst.out = append(*dst.out, body)
		}
		edit, err := json.Marshal(service.SessionTestsRequest{Remove: []int{0}, Add: []service.TestJSON{wire[(r+w)%n]}})
		if err != nil {
			return err
		}
		s.edit = append(s.edit, edit)
	}
	return nil
}

func toWire(ts circuit.TestSet) []service.TestJSON {
	out := make([]service.TestJSON, len(ts))
	for i, t := range ts {
		var vb strings.Builder
		for _, bit := range t.Vector {
			if bit {
				vb.WriteByte('1')
			} else {
				vb.WriteByte('0')
			}
		}
		out[i] = service.TestJSON{Vector: vb.String(), Output: t.Output, Want: t.Want}
	}
	return out
}

// computeRefs diagnoses every (session, rotation) state cold and
// monolithically — bsat for warm reads, edits and cegar, cov for cov —
// and builds the validators that re-check served corrections.
func (b *serveBench) computeRefs() error {
	cache := loadRefCache(b.cfg)
	n := len(b.sessions)
	b.refs = serveRefs{bsat: make([][]string, n), cov: make([][]string, n), val: make([][]*core.Validator, n)}
	for si, s := range b.sessions {
		for r := range s.tests {
			tests := s.windowTests(r, b.shape.window)
			for _, engine := range []string{"bsat", "cov"} {
				key := fmt.Sprintf("serve/%s/n%d/w%d/r%d/%s", s.name, len(s.tests), b.shape.window, r, engine)
				ref, err := cache.get(key, func() (reference, error) {
					rep, err := core.Diagnose(context.Background(), core.Request{Engine: engine, Circuit: s.circ, Tests: tests, K: 1})
					if err != nil {
						return reference{}, fmt.Errorf("reference %s: %w", key, err)
					}
					return reference{Key: solutionsKey(gatesOf(rep.Solutions)), Complete: rep.Complete}, nil
				})
				if err != nil {
					return err
				}
				if !ref.Complete {
					return fmt.Errorf("reference %s is incomplete", key)
				}
				if engine == "bsat" {
					b.refs.bsat[si] = append(b.refs.bsat[si], ref.Key)
				} else {
					b.refs.cov[si] = append(b.refs.cov[si], ref.Key)
				}
			}
			b.refs.val[si] = append(b.refs.val[si], core.NewValidator(s.circ, tests))
		}
	}
	return cache.save()
}

// start opens the journal in a fresh directory, starts the server behind
// an httptest listener and creates the clients.
func (b *serveBench) start() error {
	dir, err := os.MkdirTemp(b.cfg.workdir, "diagbench-journal-")
	if err != nil {
		return err
	}
	jw, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	b.dir, b.jw = dir, jw
	b.srv = service.NewServer(service.Options{
		Pool:      service.PoolOptions{MaxSessions: b.shape.maxSessions},
		Scheduler: service.SchedulerOptions{Workers: maxProcs},
		Journal:   jw,
	})
	b.ts = httptest.NewServer(b.srv.Handler())
	b.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	b.clients = nil
	for i := range clients {
		rng := rand.New(rand.NewSource(b.cfg.seed*1000003 + int64(i)))
		c := &client{rng: rng, id: map[int]string{}, rot: map[int]int{}}
		for si, s := range b.sessions {
			if s.owner == i {
				c.owned = append(c.owned, si)
			}
		}
		c.sessions, c.kinds = zipfDeck(c.owned), kindDeck()
		c.next = deckSize
		b.clients = append(b.clients, c)
	}
	return nil
}

// stop shuts the server down and waits for it: listener and handlers,
// scheduler workers, journal writer. The journal directory is removed.
func (b *serveBench) stop() error {
	if b.ts == nil {
		return nil
	}
	b.http.CloseIdleConnections()
	b.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Drain(ctx)
	b.jw.Close()
	b.ts = nil
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// warmUp sends every client's fixed warm-up script, least popular
// session first: reads of windows spread over the test pool (so every
// test gets encoded), then one edit, one cov and one cegar request. The
// script does not depend on the seed, so neither does setup_s.
func (b *serveBench) warmUp() {
	var wg sync.WaitGroup
	recs := make([][]reqRec, len(b.clients))
	for i, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := len(c.owned) - 1; k >= 0; k-- {
				si := c.owned[k]
				for r := 0; r < b.shape.tests; r += b.shape.window / 2 {
					recs[i] = append(recs[i], b.read(c, si, r, false))
				}
				recs[i] = append(recs[i], b.edit(c, si, false),
					b.send(reqRec{kind: "cold", engine: "cov", sess: si}, "/diagnose", b.sessions[si].cov[0], false),
					b.send(reqRec{kind: "cold", engine: "cegar", sess: si}, "/diagnose", b.sessions[si].cegar[0], false))
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		b.warmup = append(b.warmup, r...)
	}
}

// phase runs the closed loop — every client sends its next request when
// the previous one is answered — until d has passed.
func (b *serveBench) phase(d time.Duration, traced bool) ([]reqRec, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([][]reqRec, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				recs[i] = append(recs[i], b.step(c, traced))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var out []reqRec
	for _, r := range recs {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].end.Before(out[j].end) })
	return out, wall
}

// zipfDeck deals deckSize cards over the sessions, the k-th most popular
// getting a share proportional to (k+1)^-zipfS.
func zipfDeck(owned []int) []int {
	weights, sum := make([]float64, len(owned)), 0.0
	for k := range owned {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		sum += weights[k]
	}
	deck := make([]int, 0, deckSize)
	for k := len(owned) - 1; k >= 0; k-- {
		n := int(math.Round(deckSize * weights[k] / sum))
		if k == 0 {
			n = deckSize - len(deck)
		}
		for range n {
			deck = append(deck, owned[k])
		}
	}
	return deck
}

func kindDeck() []string {
	var deck []string
	for _, c := range kindCards {
		for range c.n {
			deck = append(deck, c.kind)
		}
	}
	return deck
}

// draw deals the client's next card, reshuffling the deck when it is used
// up.
func (c *client) draw() (int, string) {
	if c.next == deckSize {
		c.rng.Shuffle(deckSize, func(i, j int) { c.sessions[i], c.sessions[j] = c.sessions[j], c.sessions[i] })
		c.rng.Shuffle(deckSize, func(i, j int) { c.kinds[i], c.kinds[j] = c.kinds[j], c.kinds[i] })
		c.next = 0
	}
	c.next++
	return c.sessions[c.next-1], c.kinds[c.next-1]
}

// step sends client c's next request of the mix. An edit of a session the
// client holds no id for is sent as a read.
func (b *serveBench) step(c *client, traced bool) reqRec {
	si, kind := c.draw()
	r := c.rng.Intn(b.shape.tests)
	switch {
	case kind == "cov":
		return b.send(reqRec{kind: "cold", engine: kind, sess: si, rot: r}, "/diagnose", b.sessions[si].cov[r], traced)
	case kind == "cegar":
		return b.send(reqRec{kind: "cold", engine: kind, sess: si, rot: r}, "/diagnose", b.sessions[si].cegar[r], traced)
	case kind == "edit" && c.id[si] != "":
		return b.edit(c, si, traced)
	default:
		return b.read(c, si, r, traced)
	}
}

// read is a warm /diagnose of rotation r; the session then holds r.
func (b *serveBench) read(c *client, si, r int, traced bool) reqRec {
	rec := b.send(reqRec{kind: "read", engine: "bsat", sess: si, rot: r}, "/diagnose", b.sessions[si].read[r], traced)
	c.rot[si], c.id[si] = r, rec.ans.Session
	return rec
}

// edit retracts the oldest test of the session's window and adds the
// next pool test, moving the session to the next rotation. An evicted
// session answers 404; the client then sends the edited test-set as a
// fresh /diagnose.
func (b *serveBench) edit(c *client, si int, traced bool) reqRec {
	s := b.sessions[si]
	r := (c.rot[si] + 1) % b.shape.tests
	rec := b.send(reqRec{kind: "edit", engine: "bsat", sess: si, rot: r},
		"/sessions/"+c.id[si]+"/tests", s.edit[c.rot[si]], traced)
	if rec.status == http.StatusNotFound {
		start := rec.start
		rec = b.send(reqRec{kind: "edit", engine: "bsat", sess: si, rot: r}, "/diagnose", s.read[r], traced)
		rec.start, rec.evicted = start, true
	}
	c.rot[si], c.id[si] = r, rec.ans.Session
	return rec
}

// send posts one request and decodes its answer; the span breakdown is
// decoded only on traced phases.
func (b *serveBench) send(rec reqRec, path string, body []byte, traced bool) reqRec {
	rec.start = time.Now()
	rec.status, rec.err = b.post(path, body, traced, &rec)
	rec.end = time.Now()
	return rec
}

func (b *serveBench) post(path string, body []byte, traced bool, rec *reqRec) (int, error) {
	resp, err := b.http.Post(b.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, err
	}
	if !traced {
		return resp.StatusCode, json.Unmarshal(data, &rec.ans)
	}
	var t tracedAnswer
	err = json.Unmarshal(data, &t)
	rec.ans, rec.timings = t.answer, t.Timings
	return resp.StatusCode, err
}

// checkAll is the correctness gate: every warm-up and timed answer must
// be a complete HTTP 200 matching its reference byte for byte, and every
// SAT correction must pass re-validation.
func (b *serveBench) checkAll(g *gate, timed []reqRec) {
	all := append(append([]reqRec(nil), b.warmup...), timed...)
	for i, r := range all {
		s := b.sessions[r.sess]
		if r.err != nil || r.status != http.StatusOK {
			g.check(false, "%s %s %s: status %d: %v", r.kind, r.engine, s.name, r.status, r.err)
			continue
		}
		sols := r.ans.Solutions
		if b.cfg.tamper && i == len(b.warmup) {
			sols = tamper(sols)
		}
		want := b.refs.bsat[r.sess][r.rot]
		if r.engine == "cov" {
			want = b.refs.cov[r.sess][r.rot]
		}
		ok := r.ans.Complete && r.ans.Degraded == "" && solutionsKey(sols) == want
		if r.engine != "cov" {
			v := b.refs.val[r.sess][r.rot]
			for _, sol := range sols {
				ok = v.Validate(sol) && ok
			}
		}
		g.check(ok, "%s %s %s r=%d: answer %s, reference %s", r.kind, r.engine, s.name, r.rot, solutionsKey(sols), want)
	}
}

// endToEnd reports client-observed latency, throughput and batch time.
func (b *serveBench) endToEnd(vals map[string]float64, recs []reqRec, wall time.Duration) {
	if len(recs) == 0 {
		return
	}
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = r.ms()
	}
	p99 := quantile(lat, 0.99)
	tail := countAbove(lat, p99)
	vals["req_p50_ms"] = quantile(lat, 0.50)
	vals["req_p99_ms"] = p99
	vals["req_per_s"] = float64(len(recs)) / wall.Seconds()
	vals["bench.p99_tail_samples"] = float64(tail)
	// batch_s: the time the mix takes to complete each block of
	// shape.batch consecutive requests, median over blocks.
	var blocks []float64
	prev := recs[0].start
	for i := b.shape.batch - 1; i < len(recs); i += b.shape.batch {
		blocks = append(blocks, recs[i].end.Sub(prev).Seconds())
		prev = recs[i].end
	}
	if len(blocks) == 0 {
		blocks = append(blocks, wall.Seconds()*float64(b.shape.batch)/float64(len(recs)))
	}
	vals["batch_s"] = median(blocks)
	kinds := map[string][]float64{}
	for _, r := range recs {
		kinds[r.kind] = append(kinds[r.kind], r.ms())
	}
	// The p50 of each tenth of the phase shows drift within the run.
	var windows []string
	for w := range 10 {
		part := lat[w*len(lat)/10 : (w+1)*len(lat)/10]
		windows = append(windows, strconv.FormatFloat(quantile(part, 0.5), 'f', 2, 64))
	}
	fmt.Fprintf(b.log, "# p50 per tenth of the phase: %s ms\n", strings.Join(windows, " "))
	fmt.Fprintf(b.log, "# requests=%d wall=%.2fs p50=%.2fms p99=%.2fms (%d samples above p99) read_p50=%.2fms edit_p50=%.2fms cold_p50=%.2fms blocks=%d\n",
		len(recs), wall.Seconds(), vals["req_p50_ms"], p99, tail,
		quantile(kinds["read"], 0.5), quantile(kinds["edit"], 0.5), quantile(kinds["cold"], 0.5), len(blocks))
}

// parseCosts times circuit.ParseBench + service.Fingerprint on each
// session's bench text (median of three), the circuit-layer cost a
// /diagnose request pays.
func (b *serveBench) parseCosts() []float64 {
	out := make([]float64, len(b.sessions))
	for i, s := range b.sessions {
		var xs []float64
		for range 3 {
			start := time.Now()
			if c, err := circuit.ParseBench(s.name, strings.NewReader(s.bench)); err == nil {
				service.Fingerprint(c)
			}
			xs = append(xs, ms(time.Since(start)))
		}
		out[i] = median(xs)
	}
	return out
}

// layerMetrics derives the service, journal and circuit metrics of the
// traced phase from each response's span breakdown and the /metrics
// counters scraped around the phase.
func (b *serveBench) layerMetrics(vals map[string]float64, recs []reqRec, parse []float64, before, after map[string]float64) {
	var queue, wait, lat, parsed []float64
	sums := map[string]float64{}
	byMode := map[string][]float64{}
	n := 0
	for _, r := range recs {
		if r.timings == nil {
			continue
		}
		n++
		l := r.ms()
		lat = append(lat, l)
		phases := map[string]float64{}
		covered := 0.0
		for _, p := range r.timings.Phases {
			phases[p.Name] += p.DurationMS
			covered += p.DurationMS
		}
		queue = append(queue, phases["queue"])
		if d, ok := phases["session-wait"]; ok {
			wait = append(wait, d)
		}
		for _, name := range []string{"queue", "pool", "session-wait", "encode", "solve"} {
			sums[name] += phases[name]
		}
		sums["self"] += l - covered
		switch {
		case r.kind == "read" && r.ans.Mode == "warm":
			byMode["warm"] = append(byMode["warm"], l)
		case r.kind == "edit" && r.ans.Mode == "incremental":
			byMode["edit"] = append(byMode["edit"], l)
		case r.ans.Mode == "cold":
			byMode["cold"] = append(byMode["cold"], l)
		}
		if r.kind != "edit" || r.evicted {
			parsed = append(parsed, parse[r.sess])
		}
		if r.evicted {
			vals["service.evicted_edits"]++
		}
	}
	perReq := func(name string) float64 { return ratio(sums[name], float64(n)) }
	meanLat := mean(lat)
	vals["circuit.parse_ms"] = mean(parsed)
	vals["service.queue_p50_ms"] = quantile(queue, 0.5)
	vals["service.queue_p99_ms"] = quantile(queue, 0.99)
	vals["service.session_wait_p50_ms"] = quantile(wait, 0.5)
	vals["service.session_wait_p99_ms"] = quantile(wait, 0.99)
	for _, p := range []struct{ phase, name string }{
		{"queue", "queue"}, {"pool", "pool"}, {"session-wait", "session_wait"}, {"encode", "encode"}, {"solve", "solve"}, {"self", "self"},
	} {
		if p.phase != "queue" && p.phase != "session-wait" {
			vals["service."+p.name+"_ms"] = perReq(p.phase)
		}
		vals["share.service_"+p.name+"_pct"] = 100 * ratio(perReq(p.phase), meanLat)
	}
	vals["service.warm_p50_ms"] = quantile(byMode["warm"], 0.5)
	vals["service.edit_p50_ms"] = quantile(byMode["edit"], 0.5)
	vals["service.cold_p50_ms"] = quantile(byMode["cold"], 0.5)

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("diag_pool_hits_total"), delta("diag_pool_misses_total")
	vals["service.pool_hit_ratio"] = ratio(hits, hits+misses)
	vals["service.evictions"] = delta("diag_pool_evictions_total")
	vals["service.cold_builds"] = misses
	vals["service.retries"] = delta("diag_request_retries_total")
	vals["service.degraded"] = delta("diag_degraded_responses")
	vals["journal.appends"] = delta("diag_journal_appends_total")
	vals["journal.bytes_per_edit"] = ratio(delta("diag_journal_appended_bytes_total"), vals["journal.appends"])
	vals["journal.syncs"] = delta("diag_journal_syncs_total")
	vals["journal.compactions"] = delta("diag_journal_compactions_total")

	fmt.Fprintf(b.log, "# shares of the mean request wall (%.2f ms): queue %.1f%% pool %.1f%% session-wait %.1f%% encode %.1f%% solve %.1f%% self %.1f%%\n",
		meanLat, vals["share.service_queue_pct"], vals["share.service_pool_pct"], vals["share.service_session_wait_pct"],
		vals["share.service_encode_pct"], vals["share.service_solve_pct"], vals["share.service_self_pct"])
	fmt.Fprintf(b.log, "# pool hit ratio %.3f, %g evictions, %g cold builds, %g evicted edits; journal %g appends, %g syncs\n",
		vals["service.pool_hit_ratio"], vals["service.evictions"], vals["service.cold_builds"], vals["service.evicted_edits"],
		vals["journal.appends"], vals["journal.syncs"])
}

// scrape reads the unlabeled series of GET /metrics.
func (b *serveBench) scrape() (map[string]float64, error) {
	resp, err := b.http.Get(b.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}
