package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; names_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// workloadNames are the four traffic mixes, in the order `-workload all`
// runs them.
var workloadNames = []string{"point_mixed", "durable_write", "hot_read", "geo_hybrid"}

// endToEnd is what a caller of the metadata service sees. Each timed one is
// in units of the host probe (probe.go) and is the mean of the best quarter
// of the run's timed windows (setup_s: the median of the run's set-ups). No
// tail is gated: p90, p99 and p99.9 are reported per layer (client.*)
// because on a shared box they do not repeat well enough, see README.md.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"get_p50_us", "us"},
	{"put_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"server_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer is everything a traced run (-trace 1) reports: black-box deltas
// of the servers' own counters, the layer ladder, and span self times. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Black box, from the timed windows.
	{"rpc.server_dispatch_us", "us"},
	{"rpc.wire_us", "us"},
	{"rpc.errors_share", "ratio"},
	{"limits.rejected_share", "ratio"},
	{"readcache.hit_ratio", "ratio"},
	{"readcache.evictions_per_kop", "1/kop"},
	{"readcache.invalidations_per_kop", "1/kop"},
	{"readcache.flushes", "count"},
	{"router.read_us", "us"},
	{"router.subbatches_per_bulk", "ratio"},
	{"router.failover_reads", "count"},
	{"router.replica_write_errors", "count"},
	{"memcache.gets_per_op", "ratio"},
	{"memcache.hit_ratio", "ratio"},
	{"memcache.slot_wait_us", "us"},
	{"feed.events_per_put", "ratio"},
	{"feed.watch_lag_ms_p50", "ms"},
	{"store.wal_bytes_per_put", "B"},
	{"store.disk_bytes_per_live_entry", "B"},
	{"store.recovery_s", "s"},
	{"core.wan_ms_per_op", "ms"},
	{"core.local_hit_ratio", "ratio"},
	{"core.remote_reads_per_lookup", "ratio"},
	{"core.propagated_per_publish", "ratio"},
	{"core.propagation_lag_ms_p50", "ms"},
	{"client.host_slowdown", "ratio"},
	{"client.window_spread", "ratio"},
	{"client.get_p90_us", "us"},
	{"client.put_p90_us", "us"},
	{"client.get_p99_us", "us"},
	{"client.put_p99_us", "us"},
	{"client.get_p999_us", "us"},
	{"client.samples", "count"},
	{"client.fail_share", "ratio"},
	// Layer ladder: one public function each, single goroutine.
	{"registry.codec_encode_ns", "ns"},
	{"registry.codec_decode_ns", "ns"},
	{"registry.codec_encode_allocs", "count"},
	{"registry.codec_decode_allocs", "count"},
	{"registry.codec_bytes_per_entry", "B"},
	{"instance.get_ns", "ns"},
	{"instance.put_ns", "ns"},
	{"instance.get_allocs", "count"},
	{"instance.put_allocs", "count"},
	{"memcache.get_ns", "ns"},
	{"memcache.put_ns", "ns"},
	{"dht.ring_homes_ns", "ns"},
	{"dht.ring_homes_allocs", "count"},
	{"router.get_ns_noop", "ns"},
	{"router.get_allocs_noop", "count"},
	{"limits.admit_ns", "ns"},
	{"limits.admit_allocs", "count"},
	{"limits.reject_ns", "ns"},
	{"store.put_ns_fsync_never", "ns"},
	{"store.put_ns_fsync_always", "ns"},
	{"store.fsyncs_per_put", "ratio"},
	{"store.putbatch64_ns_per_entry", "ns"},
	{"feed.publish_ns_0sub", "ns"},
	{"feed.publish_ns_1sub", "ns"},
	{"feed.publish_ns_16sub", "ns"},
	{"readcache.hit_ns", "ns"},
	{"readcache.hit_allocs", "count"},
	{"readcache.fill_ns", "ns"},
	{"rpc.roundtrip_ns_null", "ns"},
	{"rpc.roundtrip_allocs_null", "count"},
	{"rpc.batch64_ns_per_op_null", "ns"},
	{"core.dr_create_ns", "ns"},
	{"core.dr_lookup_local_ns", "ns"},
	// Traced in-process run: mean self time per op.
	{"rpc.self_us_get", "us"},
	{"rpc.self_us_put", "us"},
	{"readcache.self_us_get", "us"},
	{"router.self_us_get", "us"},
	{"router.self_us_put", "us"},
	{"instance.self_us_get", "us"},
	{"instance.self_us_put", "us"},
	{"memcache.self_us_get", "us"},
	{"memcache.self_us_put", "us"},
	{"core.self_us_get", "us"},
	{"core.self_us_put", "us"},
	{"trace.client_mean_us", "us"},
	{"trace.overhead_share", "ratio"},
}
