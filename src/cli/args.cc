#include "cli/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iterator>

namespace relacc {
namespace {

/// '-' followed by one or more decimal digits.
bool IsNegativeInteger(const std::string& token) {
  return token.size() > 1 && token[0] == '-' &&
         token.find_first_not_of("0123456789", 1) == std::string::npos;
}

/// The flags every command reads with Has(): they never take a value, so
/// `--json spec.json` leaves spec.json a positional.
bool IsBooleanFlag(const std::string& key) {
  static const char* const kBooleanFlags[] = {
      "json", "quiet", "rules-only", "flat", "werror", "snapshot-strict"};
  return std::find(std::begin(kBooleanFlags), std::end(kBooleanFlags), key) !=
         std::end(kBooleanFlags);
}

}  // namespace

Result<Args> Args::Parse(const std::vector<std::string>& argv) {
  Args args;
  if (argv.empty()) {
    return Status::InvalidArgument("no command given; try 'relacc help'");
  }
  args.command_ = argv[0];
  bool flags_done = false;
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (flags_done || a.empty() || a[0] != '-' || a == "-") {
      args.positionals_.push_back(a);
      continue;
    }
    if (a == "--") {
      flags_done = true;
      continue;
    }
    if (a.size() < 3 || a[1] != '-') {
      return Status::InvalidArgument("unknown short option '" + a +
                                     "' (only --long flags are supported)");
    }
    std::string body = a.substr(2);
    std::string key;
    std::string value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      key = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      key = body;
      // `--key value` form: consume the next token iff the flag takes a
      // value and the token is not a flag. A negative integer
      // (`--port -1`) is a value, so it reaches the flag's own range
      // check.
      if (!IsBooleanFlag(key) && i + 1 < argv.size() &&
          (argv[i + 1].empty() || argv[i + 1][0] != '-' ||
           IsNegativeInteger(argv[i + 1]))) {
        value = argv[++i];
      }
    }
    if (key.empty()) {
      return Status::InvalidArgument("empty flag name in '" + a + "'");
    }
    args.flags_[key] = value;
  }
  return args;
}

bool Args::Has(const std::string& name) const {
  read_[name] = true;
  return flags_.count(name) > 0;
}

std::string Args::GetString(const std::string& name,
                            const std::string& fallback) const {
  read_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

Result<int64_t> Args::GetInt(const std::string& name, int64_t fallback) const {
  read_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   it->second + "'");
  }
  // strtoll clamps an overflowing value to INT64_MIN/MAX; it must not run
  // as if that bound had been given.
  if (errno == ERANGE) {
    return Status::InvalidArgument("--" + name + " is out of range, got '" +
                                   it->second + "'");
  }
  return v;
}

std::vector<std::string> Args::UnreadFlags() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : flags_) {
    (void)value;
    if (read_.find(key) == read_.end()) unread.push_back(key);
  }
  return unread;
}

}  // namespace relacc
