// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench accepts:
//   --csv            emit tables as CSV (for plotting) instead of ASCII
//   --jobs N         worker threads for parallel sweeps (0 = hardware)
//   --seed S         master seed for stochastic sweep points
//   --metrics PATH   append per-task JSONL records (runtime::MetricsSink)
//   --help           print usage and exit
// Unknown flags are an error (usage + exit 2), so a typo like `--cvs`
// cannot silently produce a serial/ASCII run that looks plausible.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "runtime/sweep.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

namespace fap::bench {

namespace detail {
inline bool& csv_mode() {
  static bool mode = false;
  return mode;
}

inline std::size_t& jobs_setting() {
  static std::size_t jobs = 1;
  return jobs;
}

inline bool& seed_overridden() {
  static bool overridden = false;
  return overridden;
}

inline std::uint64_t& seed_setting() {
  static std::uint64_t seed = 0;
  return seed;
}

inline std::unique_ptr<runtime::MetricsSink>& metrics_sink() {
  static std::unique_ptr<runtime::MetricsSink> sink;
  return sink;
}

/// A bench-specific `--flag N` registered before init() (see
/// register_numeric_flag below).
struct ExtraNumericFlag {
  std::string name;
  std::string help;
  std::uint64_t* value = nullptr;
};

inline std::vector<ExtraNumericFlag>& extra_numeric_flags() {
  static std::vector<ExtraNumericFlag> flags;
  return flags;
}

/// A bench-specific `--flag WORD` registered before init() (see
/// register_string_flag below).
struct ExtraStringFlag {
  std::string name;
  std::string help;
  std::string* value = nullptr;
};

inline std::vector<ExtraStringFlag>& extra_string_flags() {
  static std::vector<ExtraStringFlag> flags;
  return flags;
}

[[noreturn]] inline void usage(const char* binary, int exit_code) {
  std::ostream& out = (exit_code == 0 ? std::cout : std::cerr);
  out << "usage: " << binary << " [options]\n"
      << "  --csv            emit tables as CSV instead of aligned ASCII\n"
      << "  --jobs N         worker threads for parallel sweeps "
         "(default 1, 0 = all cores, at most "
      << runtime::kMaxJobs << ")\n"
      << "  --seed S         master seed for stochastic sweep points\n"
      << "  --metrics PATH   write per-task JSONL metrics to PATH\n";
  for (const ExtraNumericFlag& flag : extra_numeric_flags()) {
    out << "  " << flag.name << " N"
        << std::string(flag.name.size() + 2 < 15 ? 15 - flag.name.size() - 2
                                                 : 1,
                       ' ')
        << flag.help << "\n";
  }
  for (const ExtraStringFlag& flag : extra_string_flags()) {
    out << "  " << flag.name << " WORD"
        << std::string(flag.name.size() + 5 < 15 ? 15 - flag.name.size() - 5
                                                 : 1,
                       ' ')
        << flag.help << "\n";
  }
  out << "  --help           show this message\n";
  std::exit(exit_code);
}

/// Parses the value of a `--flag VALUE` pair, erroring out on a missing,
/// non-numeric, negative, or out-of-range value (util::parse_uint64 is
/// strict where std::strtoull silently wraps "-3" and ERANGE overflow).
inline std::uint64_t numeric_flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << argv[0] << ": " << argv[i] << " requires a value\n";
    usage(argv[0], 2);
  }
  const char* text = argv[++i];
  std::uint64_t value = 0;
  if (!util::parse_uint64(text, value)) {
    std::cerr << argv[0] << ": invalid number '" << text << "' for "
              << argv[i - 1] << "\n";
    usage(argv[0], 2);
  }
  return value;
}
}  // namespace detail

/// Registers a bench-specific `--flag N` option ahead of init(), keeping
/// the strict unknown-flag rejection: the flag is parsed like the shared
/// numeric flags, listed by --help, and written through `value` when
/// given. `name` and `help` must outlive init() (string literals do).
inline void register_numeric_flag(const char* name, const char* help,
                                  std::uint64_t* value) {
  detail::extra_numeric_flags().push_back(
      detail::ExtraNumericFlag{name, help, value});
}

/// String-valued sibling of register_numeric_flag for enumerated choices
/// like `--topology fat-tree`. The VALUE is taken verbatim; the bench
/// validates it (and errors via usage) after init().
inline void register_string_flag(const char* name, const char* help,
                                 std::string* value) {
  detail::extra_string_flags().push_back(
      detail::ExtraStringFlag{name, help, value});
}

/// Parses bench command-line flags. Rejects anything it does not know.
inline void init(int argc, char** argv) {
  const auto match_extra = [&](int& i) {
    for (detail::ExtraNumericFlag& flag : detail::extra_numeric_flags()) {
      if (std::strcmp(argv[i], flag.name.c_str()) == 0) {
        *flag.value = detail::numeric_flag_value(argc, argv, i);
        return true;
      }
    }
    for (detail::ExtraStringFlag& flag : detail::extra_string_flags()) {
      if (std::strcmp(argv[i], flag.name.c_str()) == 0) {
        if (i + 1 >= argc) {
          std::cerr << argv[0] << ": " << argv[i] << " requires a value\n";
          detail::usage(argv[0], 2);
        }
        *flag.value = argv[++i];
        return true;
      }
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      detail::csv_mode() = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      const std::uint64_t jobs = detail::numeric_flag_value(argc, argv, i);
      if (jobs > runtime::kMaxJobs) {
        std::cerr << argv[0] << ": --jobs " << jobs << " exceeds the limit of "
                  << runtime::kMaxJobs << " worker threads\n";
        detail::usage(argv[0], 2);
      }
      detail::jobs_setting() = static_cast<std::size_t>(jobs);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      detail::seed_setting() = detail::numeric_flag_value(argc, argv, i);
      detail::seed_overridden() = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": --metrics requires a path\n";
        detail::usage(argv[0], 2);
      }
      try {
        detail::metrics_sink() =
            std::make_unique<runtime::MetricsSink>(argv[++i]);
      } catch (const std::exception& error) {
        std::cerr << argv[0] << ": " << error.what() << "\n";
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      detail::usage(argv[0], 0);
    } else if (!match_extra(i)) {
      std::cerr << argv[0] << ": unknown flag '" << argv[i] << "'\n";
      detail::usage(argv[0], 2);
    }
  }
}

/// Worker threads requested via --jobs (default 1 = serial).
inline std::size_t jobs() { return detail::jobs_setting(); }

/// Master seed: the --seed value if given, else the bench's default.
inline std::uint64_t seed(std::uint64_t default_seed) {
  return detail::seed_overridden() ? detail::seed_setting() : default_seed;
}

/// The --metrics sink, or nullptr when none was requested.
inline runtime::MetricsSink* metrics() {
  return detail::metrics_sink().get();
}

/// Sweep options wired to the bench flags: --jobs, --seed (with the
/// bench's default master seed) and --metrics, stamped with `run_id`.
inline runtime::SweepOptions sweep_options(const std::string& run_id,
                                           std::uint64_t default_seed = 1) {
  runtime::SweepOptions options;
  options.jobs = jobs();
  options.base_seed = seed(default_seed);
  options.metrics = metrics();
  options.run_id = run_id;
  return options;
}

/// Renders a table per the selected output mode.
inline std::string render(const util::Table& table) {
  return detail::csv_mode() ? table.to_csv() : table.to_string();
}

inline void print_header(const std::string& experiment_id,
                         const std::string& description) {
  if (detail::csv_mode()) {
    std::cout << "# " << experiment_id << " — " << description << "\n";
    return;
  }
  std::cout << "==========================================================\n"
            << experiment_id << " — " << description << "\n"
            << "Reproduction of Kurose & Simha, \"A Microeconomic Approach\n"
            << "to Optimal File Allocation\", ICDCS 1986.\n"
            << "==========================================================\n";
}

/// Extracts the cost series from a trace.
inline std::vector<double> cost_series(
    const std::vector<core::IterationRecord>& trace) {
  std::vector<double> series;
  series.reserve(trace.size());
  for (const core::IterationRecord& rec : trace) {
    series.push_back(rec.cost);
  }
  return series;
}

}  // namespace fap::bench
