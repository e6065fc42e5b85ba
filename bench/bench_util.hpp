// Shared formatting helpers for the reproduction benches: each bench
// prints the paper's rows next to this implementation's measured or
// modeled values so EXPERIMENTS.md can be assembled from bench output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace maxel::bench {

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// Engineering notation a la the paper's tables (e.g. 2.36E+04).
inline std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2E", v);
  return buf;
}

inline std::string fix(double v, int prec = 2) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// Machine-readable bench output: collects flat records and writes them
// as a JSON array to BENCH_<name>.json so successive PRs accumulate a
// perf trajectory. Usage:
//
//   JsonReporter rep("core_scaling");
//   auto& row = rep.row();
//   row.num("cores", k).num("tables_per_sec", tps).str("backend", "aesni");
//   ...
//   rep.write();            // -> BENCH_core_scaling.json in the cwd
class JsonReporter {
 public:
  class Row {
   public:
    Row& num(const std::string& key, double v) {
      char buf[64];
      // %.17g round-trips doubles; integral values print without '.'
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& num(const std::string& key, std::uint64_t v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& boolean(const std::string& key, bool v) {
      fields_.emplace_back(key, v ? "true" : "false");
      return *this;
    }
    Row& str(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, '"' + escape(v) + '"');
      return *this;
    }

   private:
    friend class JsonReporter;
    static std::string escape(const std::string& s) {
      std::string out;
      for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonReporter(std::string name) : name_(std::move(name)) {}

  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  [[nodiscard]] std::string render() const {
    std::ostringstream os;
    os << "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "  {";
      const auto& fields = rows_[r].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        os << "\"" << fields[f].first << "\": " << fields[f].second;
        if (f + 1 < fields.size()) os << ", ";
      }
      os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
  }

  // Writes BENCH_<name>.json into `dir` (default: cwd). Returns path.
  std::string write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << render();
    return path;
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace maxel::bench
