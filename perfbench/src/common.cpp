#include "common.hpp"

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::optional<Percentile> percentile(std::vector<double>& values, double q) {
  const std::size_t n = values.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));  // 1-based nearest rank
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return Percentile{values[rank - 1], n};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double process_cpu_s(pid_t pid) {
  // Per-thread schedstat run times are in nanoseconds, where /proc/<pid>/stat
  // counts 10 ms ticks: too coarse for a few hundred short sessions.
  const std::string task =
      pid == 0 ? "/proc/self/task" : "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  double ns = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(task, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns * 1e-9;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string fingerprint_json(const std::string& commit,
                             const std::string& spill_dir) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  std::string governor =
      first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (governor.empty()) governor = "unreadable";
  struct utsname u {};
  ::uname(&u);
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu) << "\", \"nproc\": "
     << ::sysconf(_SC_NPROCESSORS_ONLN) << ", \"governor\": \""
     << json_escape(governor) << "\", \"kernel\": \"" << json_escape(u.release)
     << "\", \"spill_fs\": \"" << filesystem_type(spill_dir)
     << "\", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"ndebug\": true, \"commit\": \"" << json_escape(commit) << "\"}";
  return os.str();
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace,name,parent,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%s,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.trace), s.name, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) value = 0.0;
  const auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, unit, note, value};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, unit, note, value});
}

void Metrics::print() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-36s = %.6g %s%s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.empty() ? "" : "  ", e.note.c_str());
  }
}

std::string Metrics::json(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const std::string& n : names) {
    const auto it = index_.find(n);
    if (it == index_.end()) throw std::out_of_range("no metric " + n);
    const Entry& e = entries_[it->second];
    os << (first ? "" : ", ") << "\"" << n << "\": {\"value\": " << e.value
       << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
