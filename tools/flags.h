#ifndef CSJ_TOOLS_FLAGS_H_
#define CSJ_TOOLS_FLAGS_H_

#include <atomic>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "util/format.h"
#include "util/status.h"

/// \file
/// The command-line layer csj_tool and csj_serve share: the --flag value
/// parser, the governance exit codes and the SIGINT/SIGTERM flag.

namespace csj::cli {

/// Exit codes beyond the usual 0/1/2: a run stopped by SIGINT/SIGTERM (or,
/// for a client, by its consumer hanging up), one stopped by an expired
/// deadline, and one stopped by an exhausted memory budget.
inline constexpr int kExitInterrupted = 3;
inline constexpr int kExitDeadline = 4;
inline constexpr int kExitResourceExhausted = 5;

/// Raised by SIGINT/SIGTERM once InstallTerminationHandlers() has run. The
/// handler only sets the flag (async-signal-safe); the main thread polls
/// it and winds down at its next boundary.
inline std::atomic<bool> g_termination_requested{false};

inline void HandleTerminationSignal(int) {
  g_termination_requested.store(true, std::memory_order_relaxed);
}

inline void InstallTerminationHandlers() {
  std::signal(SIGINT, HandleTerminationSignal);
  std::signal(SIGTERM, HandleTerminationSignal);
}

/// Parses all of `text` as a decimal integer. False for an empty value,
/// leading blanks, trailing characters or a value outside `long`.
inline bool ParseLong(const std::string& text, long* value) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *value = std::strtol(text.c_str(), &end, 10);
  return errno != ERANGE && *end == '\0';
}

/// Parses all of `text` as a floating-point number. False for an empty
/// value, leading blanks, trailing characters or a value that overflows or
/// underflows a double.
inline bool ParseDouble(const std::string& text, double* value) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text.c_str(), &end);
  return errno != ERANGE && *end == '\0';
}

/// Minimal --flag value parser; every flag takes exactly one value. Any
/// malformed command line exits 2 with "<program>: <message>" on stderr.
class Flags {
 public:
  Flags(const char* program, int argc, char** argv, int first) {
    program_ = program;
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        Die(StrFormat("expected a --flag, got '%s'", argv[i]));
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      Die(StrFormat("flag '%s' is missing its value", argv[argc - 1]));
    }
  }

  std::string GetOr(const std::string& key, const std::string& fallback) {
    seen_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string Require(const std::string& key) {
    seen_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing required flag --" + key);
    return it->second;
  }

  double GetDouble(const std::string& key, double fallback) {
    seen_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double value = 0.0;
    if (!ParseDouble(it->second, &value)) {
      Die(StrFormat("--%s wants a number, got '%s'", key.c_str(),
                    it->second.c_str()));
    }
    return value;
  }

  long GetInt(const std::string& key, long fallback) {
    seen_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    long value = 0;
    if (!ParseLong(it->second, &value)) {
      Die(StrFormat("--%s wants an integer, got '%s'", key.c_str(),
                    it->second.c_str()));
    }
    return value;
  }

  /// Rejects typo'd flags once the command has read everything it knows.
  void CheckAllUsed() {
    for (const auto& [key, value] : values_) {
      if (seen_.find(key) == seen_.end()) Die("unknown flag --" + key);
    }
  }

  [[noreturn]] static void Die(const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", program_, message.c_str());
    std::exit(2);
  }

 private:
  static inline const char* program_ = "csj";
  std::map<std::string, std::string> values_;
  std::set<std::string> seen_;
};

inline void DieOnError(const Status& status) {
  if (!status.ok()) Flags::Die(status.ToString());
}

}  // namespace csj::cli

#endif  // CSJ_TOOLS_FLAGS_H_
