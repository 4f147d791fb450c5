package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// sorted metric order (counters, then gauges, then histograms),
// counter "_total" suffix, bare gauge, the histogram's cumulative
// "_bucket" series with log2 le boundaries up to the max observation,
// the "+Inf" closing bucket, and "_sum"/"_count". Name sanitization
// ('.' and '-' to '_') is exercised by the metric names themselves.
// Any formatting drift here is a scrape-breaking change: update the
// golden only together with docs/observability.md.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Int("server.requests").Add(3)
	r.Int("router.cancelled").Add(0)
	r.Gauge("repl.caught-up").Set(1)
	r.Int("store.pages_reused").Set(7)
	r.Gauge("store.file_pages").Set(12)
	r.Gauge("store.live_pages").Set(9)
	h := r.Histogram("server.latency.range")
	for _, v := range []int64{0, 1, 5, 1000} {
		h.Observe(v)
	}

	const golden = `# TYPE probe_test_router_cancelled_total counter
probe_test_router_cancelled_total 0
# TYPE probe_test_server_requests_total counter
probe_test_server_requests_total 3
# TYPE probe_test_store_pages_reused_total counter
probe_test_store_pages_reused_total 7
# TYPE probe_test_repl_caught_up gauge
probe_test_repl_caught_up 1
# TYPE probe_test_store_file_pages gauge
probe_test_store_file_pages 12
# TYPE probe_test_store_live_pages gauge
probe_test_store_live_pages 9
# TYPE probe_test_server_latency_range histogram
probe_test_server_latency_range_bucket{le="0"} 1
probe_test_server_latency_range_bucket{le="1"} 2
probe_test_server_latency_range_bucket{le="3"} 2
probe_test_server_latency_range_bucket{le="7"} 3
probe_test_server_latency_range_bucket{le="15"} 3
probe_test_server_latency_range_bucket{le="31"} 3
probe_test_server_latency_range_bucket{le="63"} 3
probe_test_server_latency_range_bucket{le="127"} 3
probe_test_server_latency_range_bucket{le="255"} 3
probe_test_server_latency_range_bucket{le="511"} 3
probe_test_server_latency_range_bucket{le="1023"} 4
probe_test_server_latency_range_bucket{le="+Inf"} 4
probe_test_server_latency_range_sum 1006
probe_test_server_latency_range_count 4
`

	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "probe_test"); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != golden {
		t.Errorf("exposition drifted from the golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestWritePrometheusGoldenNoNamespace pins the empty-namespace form:
// no prefix, no leading underscore.
func TestWritePrometheusGoldenNoNamespace(t *testing.T) {
	r := NewRegistry()
	r.Int("requests").Add(1)
	const golden = "# TYPE requests_total counter\nrequests_total 1\n"
	var sb strings.Builder
	if err := r.WritePrometheus(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != golden {
		t.Errorf("exposition drifted from the golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
