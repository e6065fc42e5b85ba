#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

// Must list exactly the metrics of BENCHMARK.json, with the same units.
const std::vector<MetricSpec> kEndToEndMetrics = {
    {"macs_per_s", "MAC/s"},
    {"cpu_us_per_mac", "us"},
    {"sessions_per_s", "1/s"},
    {"session_p50_ms", "ms"},
    {"bytes_per_mac", "B"},
    {"sim_cycles_per_mac", "cycles"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"fail_ratio", "ratio"},
    {"session_p99_ms", "ms"},
    {"crypto.aes_ns_per_block", "ns"},
    {"crypto.hash_ns.w4", "ns"},
    {"crypto.hash_ns.w16", "ns"},
    {"gc.garble_ns_per_and", "ns"},
    {"gc.eval_ns_per_and", "ns"},
    {"gc.garble_aes_floor_ratio", "ratio"},
    {"gc.eval_aes_floor_ratio", "ratio"},
    {"gc.v3_garble_round_us", "us"},
    {"core.sim_round_us", "us"},
    {"core.sim_vs_gc_garble", "ratio"},
    {"core.pool_speedup", "ratio"},
    {"hwsim.tables_per_mac", "count"},
    {"ot.iknp_ns_per_ot", "ns"},
    {"ot.extended_per_session", "count"},
    {"ot.fresh_pools", "count"},
    {"proto.v3_serialize_mb_s", "MB/s"},
    {"proto.v3_parse_mb_s", "MB/s"},
    {"svc.spool_put_ms", "ms"},
    {"svc.spool_take_ms", "ms"},
    {"svc.spool_wait_frac", "ratio"},
    {"net.handshake_ms", "ms"},
    {"net.ot_ms", "ms"},
    {"net.transfer_ms", "ms"},
    {"net.eval_ms", "ms"},
    {"net.tcp_stream_mb_s", "MB/s"},
    {"net.rtt_us", "us"},
    {"evloop.server_cpu_us_per_session", "us"},
    {"evloop.client_cpu_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Metrics::to_json(const std::vector<MetricSpec>& specs) const {
  std::string s = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    if (it == values_.end())
      throw std::logic_error(std::string("metric not measured: ") +
                             specs[i].name);
    if (!std::isfinite(it->second))
      throw std::runtime_error(std::string("metric not finite: ") +
                               specs[i].name);
    if (i != 0) s += ", ";
    s += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
         json_number(it->second) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return s + "}";
}

Tracer::Open Tracer::begin(std::string name, std::uint64_t parent) {
  Open o;
  o.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  o.parent = parent;
  o.name = std::move(name);
  o.start = Clock::now();
  return o;
}

void Tracer::end(const Open& span, Attrs attrs) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  Span s{span.id,        span.parent,      span.name,
         us(span.start), us(Clock::now()), std::move(attrs)};
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write(const std::string& path, const std::string& env_json) const {
  std::ofstream f(path);
  f << "{\"env\": " << env_json << "}\n";
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"name\": \"" << s.name
      << "\", \"start_us\": " << json_number(s.start_us)
      << ", \"end_us\": " << json_number(s.end_us) << ", \"attrs\": {";
    for (std::size_t i = 0; i < s.attrs.size(); ++i) {
      if (i != 0) f << ", ";
      f << "\"" << s.attrs[i].first << "\": " << json_number(s.attrs[i].second);
    }
    f << "}}\n";
  }
  if (!f) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
