// Minimal command-line flag parser for the example/bench executables:
// registers typed flags with defaults and help text, parses
// --name=value / --name (bool) arguments, and renders a usage page.

#ifndef MOBICACHE_UTIL_FLAGS_H_
#define MOBICACHE_UTIL_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace mobicache {

class FlagParser {
 public:
  /// `program_description` heads the usage page.
  explicit FlagParser(std::string program_description);

  // Registration: `out` must outlive Parse(); it is pre-filled with the
  // default so callers can read it even when the flag is absent.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help, std::string* out);
  void AddUint(const std::string& name, uint64_t default_value,
               const std::string& help, uint64_t* out);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help, double* out);
  /// Boolean flags accept --name, --name=true/false/1/0.
  void AddBool(const std::string& name, bool default_value,
               const std::string& help, bool* out);
  /// A string flag that may also appear bare: `--name` alone assigns
  /// `bare_value` (e.g. --json meaning "pick the default path").
  void AddOptionalString(const std::string& name,
                         const std::string& default_value,
                         const std::string& bare_value,
                         const std::string& help, std::string* out);
  /// Comma-separated lists (--units=1000,10000): at least one element, each
  /// parsed like the scalar flag of the same type.
  void AddUintList(const std::string& name,
                   const std::vector<uint64_t>& default_value,
                   const std::string& help, std::vector<uint64_t>* out);
  void AddDoubleList(const std::string& name,
                     const std::vector<double>& default_value,
                     const std::string& help, std::vector<double>* out);

  /// Parses argv. Returns InvalidArgument on unknown flags, bad or
  /// out-of-range values, and repeated flags (a repeat would otherwise
  /// silently resolve last-wins). `--help` is always accepted and sets
  /// help_requested().
  Status Parse(int argc, char** argv);

  bool help_requested() const { return help_requested_; }

  /// The usage page (description plus one line per flag with its default).
  std::string Usage() const;

 private:
  enum class Type { kString, kUint, kDouble, kBool, kUintList, kDoubleList };
  struct Flag {
    std::string name;
    std::string help;
    std::string default_text;
    Type type;
    void* out;
    /// Value a bare `--name` assigns (optional string flags only).
    std::optional<std::string> bare_value;
  };

  void Register(const std::string& name, const std::string& help,
                std::string default_text, Type type, void* out,
                std::optional<std::string> bare_value = std::nullopt);
  Status Assign(const Flag& flag, const std::string& text);
  const Flag* Find(const std::string& name) const;

  std::string description_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace mobicache

#endif  // MOBICACHE_UTIL_FLAGS_H_
