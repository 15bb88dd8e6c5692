package main

// layerMetrics derives the per-layer metrics from the traced rounds of a
// run, and the tracing overhead from its untraced rounds. Span figures
// pool every traced round; counts are per cycle or per round.
func layerMetrics(traced, plain []*roundResult) []metric {
	var recs []*recorder
	var cycles, saveBytes, imported, syncs, queueMax, metaWritten int64
	var stateBytes, casBytes, metaBytes int64
	delta := map[string]int64{}
	for _, rr := range traced {
		recs = append(recs, rr.recs...)
		cycles += int64(len(rr.cycleMs))
		saveBytes += rr.saveBytes
		imported += rr.imported
		syncs += rr.syncs
		metaWritten += rr.metaWritten
		if rr.queueMax > queueMax {
			queueMax = rr.queueMax
		}
		stateBytes += rr.stateBytes
		casBytes += rr.casBytes
		metaBytes += rr.metaBytes
		for k, v := range rr.delta {
			delta[k] += v
		}
	}
	rounds := float64(len(traced))
	perCycle := func(v int64) float64 {
		if cycles == 0 {
			return 0
		}
		return float64(v) / float64(cycles)
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	histMean := func(name string, unit float64) float64 {
		return ratio(delta[name+".sum_ns"], delta[name+".count"]) / unit
	}
	shares, unattributed := split(recs)
	var out []metric
	add := func(name string, value float64, unit string) {
		out = append(out, metric{name, value, unit})
	}
	spanStats := func(kind spanKind, p90 bool) {
		d := durations(recs, kind)
		name := spanNames[kind]
		add(name+".p50_ms", quantile(d, 0.5), "ms")
		if p90 {
			add(name+".p90_ms", quantile(d, 0.9), "ms")
		}
		add(name+".share", shares[kind], "ratio")
	}

	spanStats(spanReserve, false)
	spanStats(spanCheckin, true)
	spanStats(spanPublish, true)
	spanStats(spanSave, true)
	add("jcf.save.calls", float64(len(durations(recs, spanSave)))/rounds, "count")
	add("jcf.notify_vetoed", float64(delta["jcf_notify_vetoed_total"])/rounds, "count")

	spanStats(spanWaitFor, true)
	spanStats(spanRead, true)
	add("repl.bytes_per_cycle", perCycle(delta["replica.repl_replica_bytes_in_total"]), "B")
	add("repl.frames_per_cycle", perCycle(delta["replica.repl_replica_frames_in_total"]), "count")
	add("repl.blob_fetch.mean_ms", histMean("replica.repl_blob_fetch_ns", 1e6), "ms")
	add("repl.reconnects", float64(delta["replica.repl_replica_reconnects_total"])/rounds, "count")

	add("oms.ops_per_cycle", perCycle(delta["oms_ops_total"]), "count")
	add("oms.apply.mean_us", histMean("oms_apply_ns", 1e3), "us")
	add("oms.stripe_wait.mean_us", histMean("oms_stripe_wait_ns", 1e3), "us")
	add("oms.inline_bytes_per_cycle", perCycle(delta["oms_blob_inline_bytes_total"]), "B")
	add("oms.feed_evictions", float64(delta["oms_feed_evictions_total"])/rounds, "count")
	add("oms.feed_lag_trips", float64(delta["oms_feed_lag_trips_total"])/rounds, "count")

	add("blob.physical_bytes_per_cycle", perCycle(delta["blob_physical_bytes_total"]), "B")
	add("blob.upload.mean_ms", histMean("blob_upload_ns", 1e6), "ms")
	add("blob.queue_depth.max", float64(queueMax), "count")
	add("blob.fetched_bytes_per_cycle", perCycle(delta["replica.blob_fetched_bytes_total"]), "B")
	add("blob.dedup_hits", float64(delta["blob_dedup_hits_total"]+delta["replica.blob_dedup_hits_total"])/rounds, "count")

	add("backend.state_bytes", float64(stateBytes)/rounds, "B")
	add("backend.cas_bytes", float64(casBytes)/rounds, "B")
	add("backend.state_bytes_per_save", ratio(saveBytes, int64(len(durations(recs, spanSave)))), "B")

	spanStats(spanSchematic, true)
	spanStats(spanSimulate, true)
	spanStats(spanLayout, true)
	spanStats(spanSyncLibrary, false)
	add("core.imported_per_cycle", ratio(imported, syncs), "count")

	add("fmcad.mutations_per_cycle", perCycle(delta["fmcad.seq"]), "count")
	add("fmcad.meta_bytes", float64(metaBytes)/rounds, "B")
	add("fmcad.meta_written_bytes_per_cycle", perCycle(metaWritten), "B")
	add("fmcad.conflicts", float64(delta["fmcad.conflicts"])/rounds, "count")

	add("itc.delivered_per_cycle", perCycle(delta["jcf_notify_published_total"]), "count")

	add("harness.share", shares[spanHarness], "ratio")
	add("unattributed.share", unattributed, "ratio")
	add("trace.overhead_pct", overheadPct(plain, traced), "%")
	return out
}

// overheadPct is how much slower, in percent of cycles per second, the
// traced rounds ran than the untraced rounds of the same run.
func overheadPct(plain, traced []*roundResult) float64 {
	rate := func(rs []*roundResult) float64 {
		var xs []float64
		for _, rr := range rs {
			xs = append(xs, float64(len(rr.cycleMs))/rr.window.Seconds())
		}
		return median(xs)
	}
	p, t := rate(plain), rate(traced)
	if t == 0 {
		return 0
	}
	return (p/t - 1) * 100
}
