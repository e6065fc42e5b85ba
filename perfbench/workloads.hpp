// The workloads (conv_pool and v3_pool) and the per-layer probes. Each
// workload fills the end-to-end metrics, the per-layer metrics it derives
// from its own run and the tally; run_probes adds the rows that time
// single public calls, and run_serve_probe the serving-layer rows.
#pragma once

#include "bench.hpp"

namespace perfbench {

RunOutput run_conv_pool(const Args& args, Tracer& tracer);
RunOutput run_v3_pool(const Args& args, Tracer& tracer);

// A few seconds of closed-loop v3 sessions through net::run_client against
// an in-process EvBroker. Sets the serving-layer rows of out's per-layer
// metrics (ClientStats split, OT-pool and spool counters, front CPU
// attribution); a failed session or broken invariant clears
// out.invariants_ok.
void run_serve_probe(const Args& args, Tracer& tracer, RunOutput& out);

// Times one public call per layer, bottom of the tower first, and
// records each row's median in out.per_layer and its median, spread and
// ratio to the layer beneath in out.notes.
void run_probes(const Args& args, Tracer& tracer, RunOutput& out);

// Wall time of a mid-sized conv layer on a 1-core pool over the same
// layer on an nproc-core pool (median of alternating repetitions).
double measure_pool_speedup(const Args& args, Tracer& tracer, RunOutput& out);

}  // namespace perfbench
