package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("solves_total", "solves", "service")
	c.With("zoom1").Inc()
	c.With("zoom1").Add(2)
	c.With("zoom2").Inc()
	if got := c.With("zoom1").Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	c.With("zoom1").Add(-5) // counters are monotone: ignored
	if got := c.With("zoom1").Value(); got != 3 {
		t.Errorf("counter after negative add = %v, want 3", got)
	}
	g := r.NewGauge("queue_depth", "depth")
	g.With().Set(4)
	g.With().Set(3)
	if got := g.With().Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
}

func TestExpositionDeterministicOrdering(t *testing.T) {
	// Register families and children in scrambled order; exposition must
	// come out sorted by family name, then label values.
	r := NewRegistry()
	b := r.NewCounter("bbb_total", "second", "k")
	a := r.NewCounter("aaa_total", "first", "k")
	b.With("z").Inc()
	b.With("a").Inc()
	a.With("m").Inc()

	first := r.String()
	for i := 0; i < 5; i++ {
		if got := r.String(); got != first {
			t.Fatal("exposition must be deterministic across scrapes")
		}
	}
	iA := strings.Index(first, "aaa_total{")
	iBa := strings.Index(first, `bbb_total{k="a"}`)
	iBz := strings.Index(first, `bbb_total{k="z"}`)
	if !(iA >= 0 && iA < iBa && iBa < iBz) {
		t.Errorf("ordering wrong:\n%s", first)
	}
	if !strings.Contains(first, "# HELP aaa_total first\n# TYPE aaa_total counter\n") {
		t.Errorf("missing HELP/TYPE header:\n%s", first)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", `help with \ backslash
and newline`, "path")
	c.With(`C:\tmp "quoted"` + "\nline2").Inc()
	out := r.String()
	want := `esc_total{path="C:\\tmp \"quoted\"\nline2"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped sample missing.\nwant %s\ngot:\n%s", want, out)
	}
	if !strings.Contains(out, `# HELP esc_total help with \\ backslash\nand newline`) {
		t.Errorf("help escaping wrong:\n%s", out)
	}
	// No raw newline may survive inside any sample or header line.
	for _, l := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(l, "and newline") || strings.HasPrefix(l, "line2") {
			t.Errorf("raw newline leaked into exposition:\n%s", out)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("wait_seconds", "queue wait", []float64{1, 5, 10}, "service")
	w := h.With("zoom2")
	for _, v := range []float64{0.5, 0.7, 3, 7, 100} {
		w.Observe(v)
	}
	if w.Count() != 5 {
		t.Fatalf("count %d, want 5", w.Count())
	}
	if w.Sum() != 111.2 {
		t.Fatalf("sum %v, want 111.2", w.Sum())
	}
	out := r.String()
	for _, want := range []string{
		`wait_seconds_bucket{service="zoom2",le="1"} 2`,
		`wait_seconds_bucket{service="zoom2",le="5"} 3`,
		`wait_seconds_bucket{service="zoom2",le="10"} 4`,
		`wait_seconds_bucket{service="zoom2",le="+Inf"} 5`,
		`wait_seconds_sum{service="zoom2"} 111.2`,
		`wait_seconds_count{service="zoom2"} 5`,
		"# TYPE wait_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulativeness: each bucket's exposed value must be >= the previous.
	var prev int
	for _, le := range []string{`le="1"`, `le="5"`, `le="10"`, `le="+Inf"`} {
		line := lineWith(out, le)
		n, err := lastInt(line)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket %s = %d < previous %d (not cumulative)", le, n, prev)
		}
		prev = n
	}
	// An exact boundary value lands in its bucket (le is inclusive).
	w2 := h.With("edge")
	w2.Observe(5)
	out = r.String()
	if !strings.Contains(out, `wait_seconds_bucket{service="edge",le="5"} 1`) {
		t.Errorf("le must be inclusive:\n%s", out)
	}
	if !strings.Contains(out, `wait_seconds_bucket{service="edge",le="1"} 0`) {
		t.Errorf("empty lower bucket must still be exposed:\n%s", out)
	}
}

func TestHistogramDefaultAndExpBuckets(t *testing.T) {
	if got := len(ExpBuckets(0.1, 2, 5)); got != 5 {
		t.Errorf("ExpBuckets n = %d, want 5", got)
	}
	bs := ExpBuckets(1, 10, 3)
	if bs[0] != 1 || bs[1] != 10 || bs[2] != 100 {
		t.Errorf("ExpBuckets = %v", bs)
	}
	if ExpBuckets(-1, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil {
		t.Error("invalid ExpBuckets args must return nil")
	}
	r := NewRegistry()
	h := r.NewHistogram("d_seconds", "durations", nil)
	h.With().Observe(0.2)
	if !strings.Contains(r.String(), `d_seconds_bucket{le="0.5"} 1`) {
		t.Errorf("default buckets not applied:\n%s", r.String())
	}
}

func TestEmptyFamiliesOmitted(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("never_touched_total", "no children")
	if out := r.String(); out != "" {
		t.Errorf("family without children must not be exposed, got:\n%s", out)
	}
}

func TestReregistrationSharesFamily(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("shared_total", "one", "k")
	b := r.NewCounter("shared_total", "other help ignored", "k")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").Value(); got != 2 {
		t.Errorf("re-registered family must share children, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch must panic")
		}
	}()
	r.NewGauge("shared_total", "wrong kind")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c", "w")
	h := r.NewHistogram("h_seconds", "h", []float64{1, 10}, "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < 1000; i++ {
				c.With(lbl).Inc()
				h.With(lbl).Observe(float64(i % 20))
				if i%100 == 0 {
					_ = r.String()
				}
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		total += c.With(lbl).Value()
	}
	if total != 8000 {
		t.Errorf("lost increments: %v, want 8000", total)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("up_total", "liveness").With().Inc()
	h := Handler(r, func(w http.ResponseWriter) { io.WriteString(w, "component: test\n") })
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/statusz"); code != 200 || !strings.Contains(body, "component: test") {
		t.Errorf("/statusz = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.NewGauge("g", "a gauge").With().Set(1)
	addr, shutdown, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "g 1") {
		t.Errorf("served exposition %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
}

// lineWith returns the first exposition line containing the substring.
func lineWith(out, sub string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, sub) {
			return l
		}
	}
	return ""
}

// lastInt parses the trailing integer sample of an exposition line.
func lastInt(line string) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	return strconv.Atoi(line[i+1:])
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.count
}

// Sum returns the sum of observations.
func (h Histogram) Sum() float64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.val
}
