// Minimal command-line flag parser for the bench/example binaries.
// Accepts `--name=value` and `--name value`; `--help` prints registered
// flags. No global state: each binary builds one `FlagSet`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace omcast::util {

class FlagSet {
 public:
  // Registers a flag with a default value and help text. Returns *this for
  // chaining.
  FlagSet& Define(const std::string& name, const std::string& default_value,
                  const std::string& help);

  // Parses argv. Returns false (after printing usage) on unknown flags,
  // missing values, or --help.
  bool Parse(int argc, char** argv);

  // Typed accessors; abort on unregistered names (programming error) and,
  // naming the flag, on a value that is not entirely a number of the type
  // or does not fit it: "2000x", "four" and a seed above 2^64 - 1 are
  // errors, not 2000, 0 and a wrapped seed. GetDouble takes finite values
  // only; GetBool takes 1/true/yes/on and 0/false/no/off.
  std::string GetString(const std::string& name) const;
  int GetInt(const std::string& name) const;
  std::uint64_t GetU64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  // Parses a comma-separated list of integers, e.g. "2000,5000,8000";
  // empty tokens are skipped.
  std::vector<int> GetIntList(const std::string& name) const;

  void PrintUsage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

}  // namespace omcast::util
