// maxel_perfbench — the repository's benchmark program.
//
//   maxel_perfbench --workload conv_pool|v3_pool
//                   --seed N --seconds S --trace 0|1 --out DIR
//
// Runs one workload for S seconds on inputs derived from the seed,
// checks every operation against its plaintext reference, and prints as
// its last stdout line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 spans are recorded (and written to DIR at exit),
// the per-layer probes and a short v3 serving run follow the workload, and
// the metrics are the per-layer ones.
// The lines before it are the environment stamp and the detail rows.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "crypto/aes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--out")
      a.out_dir = v;
    else
      throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.out_dir.empty() || !(a.seconds > 0))
    throw std::invalid_argument(
        "usage: maxel_perfbench --workload W --seed N --seconds S "
        "--trace 0|1 --out DIR");
  return a;
}

std::string loadavg() {
  std::ifstream f("/proc/loadavg");
  double one = 0;
  f >> one;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", one);
  return buf;
}

std::string env_json(const Args& a, const std::string& load_start,
                     const std::string& load_end) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  const bool optimized = build == "Release" || build == "RelWithDebInfo" ||
                         build == "MinSizeRel";
  return std::string("{\"workload\": \"") + a.workload +
         "\", \"seed\": " + std::to_string(a.seed) +
         ", \"seconds\": " + std::to_string(a.seconds) +
         ", \"trace\": " + (a.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"aes_backend\": \"" +
         maxel::crypto::aes_backend_name(maxel::crypto::aes_active_backend()) +
         "\", \"build_type\": \"" + build + "\", \"optimized\": " +
         (optimized ? "true" : "false") + ", \"compiler\": \"" +
         PERFBENCH_COMPILER + "\", \"loadavg_start\": " + load_start +
         ", \"loadavg_end\": " + load_end + "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.out_dir);
    const std::string load_start = loadavg();

    Tracer tracer;
    tracer.set_enabled(args.trace);
    RunOutput out;
    if (args.workload == "conv_pool")
      out = run_conv_pool(args, tracer);
    else if (args.workload == "v3_pool")
      out = run_v3_pool(args, tracer);
    else
      throw std::invalid_argument("unknown workload " + args.workload);
    if (args.trace) {
      run_probes(args, tracer, out);
      run_serve_probe(args, tracer, out);
    }

    const std::string env = env_json(args, load_start, loadavg());
    for (const auto& line : out.notes) std::printf("# %s\n", line.c_str());
    std::printf("# env %s\n", env.c_str());
    if (args.trace) {
      const std::string path = args.out_dir + "/trace-" + args.workload +
                               "-" + std::to_string(args.seed) + ".jsonl";
      tracer.write(path, env);
      std::printf("# %zu spans written to %s\n", tracer.size(), path.c_str());
    }

    const auto& t = out.tally;
    const bool correct = out.invariants_ok && t.wrong == 0 && t.ok > 0;
    const std::string metrics =
        args.trace ? out.per_layer.to_json(kPerLayerMetrics)
                   : out.end_to_end.to_json(kEndToEndMetrics);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed()), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "maxel_perfbench: %s\n", e.what());
    return 1;
  }
}
