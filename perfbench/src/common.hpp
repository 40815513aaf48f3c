#pragma once
// Clocks, percentiles, /proc readers, the machine fingerprint, in-memory
// spans and the metric sink shared by every part of the benchmark.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// A percentile with the sample count it came from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile q in (0, 1] of `values` (sorted in place).
/// Refuses (nullopt) unless at least ten samples lie beyond the rank, so a
/// p99 needs >= 1000 samples and a p50 >= 20.
std::optional<Percentile> percentile(std::vector<double>& values, double q);

double median(std::vector<double> values);

/// On-CPU time of all live threads of a process, in seconds (schedstat); pid 0
/// reads the calling process.
double process_cpu_s(pid_t pid);

/// Filesystem type name of the filesystem holding `path` ("ext4", ...).
std::string filesystem_type(const std::string& path);

/// CPU model, nproc, governor, kernel, compiler, build type and commit, as
/// a one-line JSON object.
std::string fingerprint_json(const std::string& commit,
                             const std::string& spill_dir);

/// One timed interval at a layer boundary. Spans of one session share
/// `trace`; `parent` names the replay level (or "loopback").
struct Span {
  std::uint64_t trace = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written out once, at exit.
class SpanLog {
 public:
  bool on = false;
  std::vector<Span> spans;

  void add(std::uint64_t trace, const char* name, const char* parent,
           std::int64_t start, std::int64_t end) {
    if (on) spans.push_back({trace, name, parent, start, end});
  }
  /// CSV: trace,name,parent,start_ns,end_ns. Returns false on I/O error.
  bool write(const std::string& path) const;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// "metric <name> = <value> <unit>  <note>" lines.
  void print() const;
  /// {"name": {"value": v, "unit": u}, ...} restricted to `names`.
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    std::string name, unit, note;
    double value;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace perfbench
