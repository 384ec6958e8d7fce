#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>
#include <type_traits>

#include "util/check.h"

namespace omcast::util {

namespace {

// The whole of `text` as a T, or an abort naming flag `name`.
template <typename T>
T ParseNumber(const std::string& name, const std::string& text,
              const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) Fail("flag --" + name + ": '" + text + "' is not " + what);
  return value;
}

}  // namespace

FlagSet& FlagSet::Define(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  Check(!flags_.contains(name), "duplicate flag definition");
  flags_[name] = Flag{default_value, default_value, help};
  return *this;
}

bool FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        PrintUsage(argv[0]);
        return false;
      }
      value = argv[++i];
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      PrintUsage(argv[0]);
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string FlagSet::GetString(const std::string& name) const {
  const auto it = flags_.find(name);
  Check(it != flags_.end(), "access to unregistered flag");
  return it->second.value;
}

int FlagSet::GetInt(const std::string& name) const {
  return ParseNumber<int>(name, GetString(name), "an int");
}

std::uint64_t FlagSet::GetU64(const std::string& name) const {
  return ParseNumber<std::uint64_t>(name, GetString(name),
                                    "an unsigned 64-bit integer");
}

double FlagSet::GetDouble(const std::string& name) const {
  return ParseNumber<double>(name, GetString(name), "a finite number");
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  Fail("flag --" + name + ": '" + v +
       "' is not a bool (1/true/yes/on or 0/false/no/off)");
}

std::vector<int> FlagSet::GetIntList(const std::string& name) const {
  std::vector<int> out;
  const std::string v = GetString(name);
  std::size_t pos = 0;
  while (pos < v.size()) {
    std::size_t comma = v.find(',', pos);
    if (comma == std::string::npos) comma = v.size();
    const std::string tok = v.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(ParseNumber<int>(name, tok, "an int"));
    pos = comma + 1;
  }
  return out;
}

void FlagSet::PrintUsage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.default_value.c_str());
  }
}

}  // namespace omcast::util
