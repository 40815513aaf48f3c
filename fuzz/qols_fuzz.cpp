// qols_fuzz — the differential fuzzing CLI.
//
//   qols_fuzz                                # 10-second soak, seed 1
//   qols_fuzz --budget-seconds 60 --seed 7   # time-boxed CI leg
//   qols_fuzz --cases 100000                 # case-count budget
//   qols_fuzz --replay qf6-...               # re-check one failure token
//   qols_fuzz --float --budget-seconds 30    # float-amplitude quantum soak
//   qols_fuzz --snapshot --cases 100000      # snapshot/resume (P7) on every case
//   qols_fuzz --wire --cases 100000          # frame-level wire (P8) on every case
//   qols_fuzz --crash --budget-seconds 60    # crash/recovery (P9) on every case
//
// Every discrepancy prints both the as-found and the shrunk repro token;
// --token-file additionally writes the shrunk token to a file (CI uploads
// it as an artifact). Exit status: 0 = clean, 1 = discrepancy found or a
// replayed case fails, 2 = usage error.
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "qols/fuzz/fuzzer.hpp"
#include "qols/fuzz/repro.hpp"
#include "qols/telemetry/instruments.hpp"

namespace {

using namespace qols::fuzz;

void print_usage(std::ostream& os) {
  os << "usage: qols_fuzz [options]\n"
        "  --seed <n>            master seed (default 1)\n"
        "  --cases <n>           stop after n cases\n"
        "  --budget-seconds <s>  stop after s seconds (default 10 when no\n"
        "                        budget is given at all)\n"
        "  --max-failures <n>    stop after n discrepancies (default 4)\n"
        "  --no-shrink           report failures as found, unminimized\n"
        "  --float               force float amplitudes on quantum cases\n"
        "  --snapshot            force the snapshot/resume property (P7) on\n"
        "                        every case, not just the generator's half\n"
        "  --wire                force the frame-level wire property (P8) on\n"
        "                        every case, not just the generator's half\n"
        "  --crash               force the crash/recovery property (P9) on\n"
        "                        every case, not just the generator's half\n"
        "  --token-file <path>   write the first shrunk repro token here\n"
        "  --replay <token>      re-check one case from its repro token\n"
        "  --no-telemetry        runtime-disable telemetry recording (the\n"
        "                        soak itself is telemetry-invariant either\n"
        "                        way; this removes the recording overhead)\n"
        "  --quiet               only the final summary line\n"
        "  --help                this text\n";
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_seconds(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || !(v > 0.0)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void print_failure(const FuzzFailure& f) {
  std::cerr << "DISCREPANCY [" << f.property << "] " << f.detail << "\n"
            << "  case:   " << describe(f.found) << "\n"
            << "  token:  " << f.token << "\n";
  if (f.minimized_token != f.token) {
    std::cerr << "  shrunk: " << describe(f.minimized) << "\n"
              << "  shrunk token: " << f.minimized_token << "\n";
  }
}

int replay(const std::string& token) {
  FuzzCase c;
  try {
    c = decode_token(token);
  } catch (const std::invalid_argument& e) {
    std::cerr << "qols_fuzz: " << e.what() << "\n";
    return 2;
  }
  const CaseResult result = check_case(c);
  std::cout << "replay " << describe(c) << "\n"
            << "word: " << result.word_len << " symbols, class "
            << word_class_name(result.cls) << "\n";
  if (result.ok()) {
    std::cout << "all properties hold\n";
    return 0;
  }
  for (const Discrepancy& d : result.issues) {
    std::cout << "FAIL [" << d.property << "] " << d.detail << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opts;
  bool quiet = false;
  bool budget_given = false;
  std::optional<std::string> replay_token;
  std::optional<std::string> token_file;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qols_fuzz: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--float") {
      opts.force_float = true;
    } else if (arg == "--snapshot") {
      opts.force_snapshot = true;
    } else if (arg == "--wire") {
      opts.force_wire = true;
    } else if (arg == "--crash") {
      opts.force_crash = true;
    } else if (arg == "--no-telemetry") {
      qols::telemetry::set_enabled(false);
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return 2;
      const auto n = parse_u64(v);
      if (!n) {
        std::cerr << "qols_fuzz: --seed wants an unsigned integer\n";
        return 2;
      }
      opts.seed = *n;
    } else if (arg == "--cases") {
      const char* v = value();
      if (!v) return 2;
      const auto n = parse_u64(v);
      if (!n || *n == 0) {
        std::cerr << "qols_fuzz: --cases wants a positive integer\n";
        return 2;
      }
      opts.max_cases = *n;
      budget_given = true;
    } else if (arg == "--budget-seconds") {
      const char* v = value();
      if (!v) return 2;
      const auto s = parse_seconds(v);
      if (!s) {
        std::cerr << "qols_fuzz: --budget-seconds wants a positive number\n";
        return 2;
      }
      opts.budget_seconds = *s;
      budget_given = true;
    } else if (arg == "--max-failures") {
      const char* v = value();
      if (!v) return 2;
      const auto n = parse_u64(v);
      if (!n || *n == 0) {
        std::cerr << "qols_fuzz: --max-failures wants a positive integer\n";
        return 2;
      }
      opts.max_failures = static_cast<std::size_t>(*n);
    } else if (arg == "--token-file") {
      const char* v = value();
      if (!v) return 2;
      token_file = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (!v) return 2;
      replay_token = v;
    } else {
      std::cerr << "qols_fuzz: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  if (replay_token) return replay(*replay_token);
  if (!budget_given) opts.budget_seconds = 10.0;

  if (!quiet) {
    std::cout << "qols_fuzz: seed=" << opts.seed;
    if (opts.max_cases != 0) std::cout << " cases<=" << opts.max_cases;
    if (opts.budget_seconds > 0.0) {
      std::cout << " budget=" << opts.budget_seconds << "s";
    }
    std::cout << (opts.shrink ? "" : " (no shrink)") << "\n";
  }

  const FuzzReport report = run_fuzz(opts);

  if (!quiet) {
    std::cout << "word kinds:";
    for (unsigned i = 0; i < kWordKindCount; ++i) {
      std::cout << " " << word_kind_name(static_cast<WordKind>(i)) << "="
                << report.by_word_kind[i];
    }
    std::cout << "\nword classes:";
    for (unsigned i = 0; i < kWordClassCount; ++i) {
      std::cout << " " << word_class_name(static_cast<WordClass>(i)) << "="
                << report.by_word_class[i];
    }
    std::cout << "\n";
  }
  std::cout << "cases: " << report.cases << " in " << report.seconds
            << "s (" << static_cast<std::uint64_t>(report.cases_per_second())
            << "/sec)  discrepancies: " << report.failures.size() << "\n";

  for (const FuzzFailure& f : report.failures) print_failure(f);
  if (!report.failures.empty() && token_file) {
    std::ofstream out(*token_file);
    out << report.failures.front().minimized_token << "\n";
    if (!out) {
      std::cerr << "qols_fuzz: cannot write '" << *token_file << "'\n";
    }
  }
  return report.clean() ? 0 : 1;
}
