package main

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload never calls reports 0, since
// that workload does no work there.
var layerUnits = map[string]string{
	// pipeline
	"decompose.ms":                "ms",
	"place.ms":                    "ms",
	"insert_swaps.ms":             "ms",
	"schedule.ms":                 "ms",
	"insert_swaps.swaps":          "count",
	"insert_swaps.opposing_swaps": "count",
	"schedule.moves":              "count",
	"schedule.dist_spacings":      "count",
	"compile.alloc_mb":            "MB",
	// sim / qccd
	"sim.ms":           "ms",
	"idealti.ms":       "ms",
	"qccd.ms":          "ms",
	"qccd.shuttle_ops": "count",
	// mc / qsim
	"mc.engine_ms":           "ms",
	"mc.clean_ms":            "ms",
	"mc.fidelity_ms":         "ms",
	"mc.us_per_shot":         "us",
	"mc.clean_shot_fraction": "ratio",
	"qsim.ns_per_gate":       "ns",
	"qsim.gates_per_shot":    "count",
	// lru / jobs
	"cache.hit_ratio":     "ratio",
	"jobs.dedup_ratio":    "ratio",
	"jobs.queue_wait_ms":  "ms",
	"backend.compile_ms":  "ms",
	"backend.simulate_ms": "ms",
	// journal
	"journal.append_sync_us":   "us",
	"journal.append_nosync_us": "us",
	"journal.appends_per_job":  "count",
	// linqhttp
	"http.submit_ms":    "ms",
	"http.result_ms":    "ms",
	"http.result_bytes": "bytes",
}

// fillIdleLayers sets every per-layer metric the workload did not measure
// to 0.
func fillIdleLayers(out *outcome) {
	for name, unit := range layerUnits {
		if _, ok := out.metrics[name]; !ok {
			out.set(name, 0, unit)
		}
	}
}
