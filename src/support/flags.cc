#include "support/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>

#include "support/strings.h"

namespace wrl {

namespace {

// True when std::from_chars reads all of `text` into `value`.
template <typename T>
bool ParsesWhole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

double ParseFiniteReal(std::string_view text) {
  double value = 0;
  if (!ParsesWhole(text, value) || !std::isfinite(value)) {
    throw Error("'" + std::string(text) + "' is not a finite number");
  }
  return value;
}

uint64_t ParseUnsigned(std::string_view text, uint64_t max) {
  uint64_t value = 0;
  if (!ParsesWhole(text, value)) {
    throw Error("'" + std::string(text) + "' is not an unsigned integer");
  }
  if (value > max) {
    throw Error(StrFormat("%llu is larger than %llu", static_cast<unsigned long long>(value),
                          static_cast<unsigned long long>(max)));
  }
  return value;
}

void Flags::Add(const std::string& name, const char* metavar,
                std::function<void(std::string_view)> set) {
  flags_.push_back({name, metavar, std::move(set)});
}

void Flags::String(const std::string& name, std::string* out, const char* metavar) {
  Add(name, metavar, [out](std::string_view v) { *out = v; });
}

void Flags::Strings(const std::string& name, std::vector<std::string>* out, const char* metavar) {
  Add(name, metavar, [out](std::string_view v) { out->emplace_back(v); });
}

void Flags::Real(const std::string& name, double* out) {
  Add(name, "X", [out](std::string_view v) { *out = ParseFiniteReal(v); });
}

void Flags::Switch(const std::string& name, bool* out) {
  Add(name, nullptr, [out](std::string_view) { *out = true; });
}

std::vector<std::string> Flags::Parse(ArgList args, size_t min_positionals,
                                      size_t max_positionals) const {
  std::vector<std::string> positionals;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      (rest_ != nullptr ? *rest_ : positionals).push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const Flag* flag = nullptr;
    if (HasPrefix(arg, "--")) {
      const std::string_view name =
          std::string_view(arg).substr(2, eq == std::string::npos ? eq : eq - 2);
      for (const Flag& f : flags_) {
        if (f.name == name) {
          flag = &f;
        }
      }
    }
    if (flag == nullptr) {
      if (rest_ == nullptr) {
        throw UsageError("unknown flag '" + arg + "'");
      }
      rest_->push_back(arg);
      continue;
    }
    const std::string spelled = "--" + flag->name;
    if (flag->metavar == nullptr) {
      if (eq != std::string::npos) {
        throw UsageError(spelled + " takes no value (got '" + arg + "')");
      }
      flag->set("");
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      throw UsageError(spelled + " needs a value");
    }
    try {
      flag->set(value);
    } catch (const Error& e) {
      throw UsageError(spelled + ": " + e.what());
    }
  }
  if (positionals.size() > max_positionals) {
    throw UsageError("unexpected argument '" + positionals[max_positionals] + "'");
  }
  if (positionals.size() < min_positionals) {
    throw UsageError(StrFormat("expected %zu positional argument(s), got %zu", min_positionals,
                               positionals.size()));
  }
  return positionals;
}

std::string Flags::Usage() const {
  std::string usage = synopsis_;
  for (const Flag& f : flags_) {
    usage += (usage.empty() ? "[--" : " [--") + f.name;
    usage += f.metavar != nullptr ? std::string(" ") + f.metavar + "]" : "]";
  }
  return usage;
}

int RunMain(const char* tool, int argc, char** argv, int (*body)(ArgList args)) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    return body(args);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "%s: %s\nusage: %s%s%s\n", tool, e.what(), tool,
                 e.usage().empty() ? "" : " ", e.usage().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
  }
  return 2;
}

}  // namespace wrl
