// The command line of every wrltrace binary: one strict flag parser and one
// `main` wrapper.
//
// A binary declares each flag once — its name, where the value goes, and
// its kind — and Flags::Parse accepts both `--name=V` and `--name V`,
// collects the positionals, and rejects everything else with a FlagError
// that names the argument: an unknown flag, a missing value, a value given
// to a switch, or a number that does not parse as a whole.
//
// RunMain runs a binary's body and maps the outcome onto the exit codes
// every binary shares: the body returns 0 (ok) or 1 (a check failed); any
// exception becomes `<tool>: <message>` on stderr (plus the usage line for
// a FlagError) and exit 2.
#ifndef WRLTRACE_SUPPORT_FLAGS_H_
#define WRLTRACE_SUPPORT_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.h"

namespace wrl {

// A binary's arguments, program name excluded.
using ArgList = std::span<const std::string>;

// A command-line mistake; `usage()` is the synopsis RunMain prints after it.
class FlagError : public Error {
 public:
  FlagError(const std::string& message, std::string usage)
      : Error(message), usage_(std::move(usage)) {}
  const std::string& usage() const { return usage_; }

 private:
  std::string usage_;
};

// Parses all of `text` as a finite decimal real (std::from_chars); throws
// wrl::Error otherwise ("abc", "0.5x", "1e", "nan", "inf", "").
double ParseFiniteReal(std::string_view text);

// Parses all of `text` as an unsigned decimal integer no larger than `max`;
// throws wrl::Error otherwise ("-1", "+1", "1.5", "").
uint64_t ParseUnsigned(std::string_view text,
                       uint64_t max = std::numeric_limits<uint64_t>::max());

class Flags {
 public:
  // `synopsis` leads the usage line: a subcommand and/or the positionals
  // ("BASELINE.json CURRENT.json", "info FILE", "" for none).
  explicit Flags(std::string synopsis = "") : synopsis_(std::move(synopsis)) {}

  void String(const std::string& name, std::string* out, const char* metavar);
  // Repeatable: every occurrence appends.
  void Strings(const std::string& name, std::vector<std::string>* out, const char* metavar);
  void Real(const std::string& name, double* out);
  void Switch(const std::string& name, bool* out);
  template <typename T>
  void Unsigned(const std::string& name, T* out) {
    Add(name, "N", [out](std::string_view v) {
      *out = static_cast<T>(ParseUnsigned(v, std::numeric_limits<T>::max()));
    });
  }
  // An unsigned flag with no default: `*out` holds a value only if given.
  template <typename T>
  void Unsigned(const std::string& name, std::optional<T>* out) {
    Add(name, "N", [out](std::string_view v) {
      *out = static_cast<T>(ParseUnsigned(v, std::numeric_limits<T>::max()));
    });
  }

  // Forwards every argument this parser does not declare (flags and
  // positionals alike, in order) to `rest` instead of rejecting it.
  void PassThrough(std::vector<std::string>* rest) { rest_ = rest; }

  // Applies `args` to the declared flags and returns the positionals;
  // throws FlagError on a bad argument or unless there are between
  // `min_positionals` and `max_positionals` positionals.
  std::vector<std::string> Parse(ArgList args, size_t min_positionals = 0,
                                 size_t max_positionals = 0) const;

  // "SYNOPSIS [--name V] ..."; the text RunMain prints after "usage: TOOL".
  std::string Usage() const;
  // A FlagError carrying this parser's usage line.
  FlagError UsageError(const std::string& message) const { return FlagError(message, Usage()); }

 private:
  struct Flag {
    std::string name;
    const char* metavar;  // Null for a switch.
    std::function<void(std::string_view)> set;
  };
  void Add(const std::string& name, const char* metavar, std::function<void(std::string_view)> set);

  std::string synopsis_;
  std::vector<Flag> flags_;
  std::vector<std::string>* rest_ = nullptr;
};

// The whole `main` of a binary: runs `body` on argv[1..argc) and returns
// its exit code, or prints `tool: <message>` (and, for a FlagError,
// `usage: tool <usage>`) to stderr and returns 2 when it throws.
int RunMain(const char* tool, int argc, char** argv, int (*body)(ArgList args));

}  // namespace wrl

#endif  // WRLTRACE_SUPPORT_FLAGS_H_
