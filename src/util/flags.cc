#include "util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

namespace mobicache {

namespace {

Status ParseUint(const std::string& name, const std::string& text,
                 uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  // strtoull silently wraps negative input; reject it explicitly.
  if (end == nullptr || *end != '\0' || text.empty() || text[0] == '-') {
    return Status::InvalidArgument("--" + name +
                                   " expects an unsigned integer");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("--" + name +
                                   " is out of range for uint64");
  }
  *out = value;
  return Status::OK();
}

Status ParseDouble(const std::string& name, const std::string& text,
                   double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::InvalidArgument("--" + name + " expects a number");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("--" + name +
                                   " is out of range for double");
  }
  *out = value;
  return Status::OK();
}

/// Splits `text` at commas and parses every element with `parse`; an empty
/// list or element is an error.
template <typename T, typename Parse>
Status ParseList(const std::string& name, const std::string& text,
                 Parse parse, std::vector<T>* out) {
  std::vector<T> values;
  size_t begin = 0;
  while (true) {
    const size_t comma = text.find(',', begin);
    const std::string item = text.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (item.empty()) {
      return Status::InvalidArgument("--" + name +
                                     " expects a comma-separated list");
    }
    T value{};
    MOBICACHE_RETURN_IF_ERROR(parse(name, item, &value));
    values.push_back(value);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  *out = std::move(values);
  return Status::OK();
}

template <typename T>
std::string ListText(const std::vector<T>& values) {
  std::ostringstream text;
  for (size_t i = 0; i < values.size(); ++i) {
    text << (i == 0 ? "" : ",") << values[i];
  }
  return text.str();
}

}  // namespace

FlagParser::FlagParser(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help, std::string* out) {
  *out = default_value;
  Register(name, help, default_value, Type::kString, out);
}

void FlagParser::AddUint(const std::string& name, uint64_t default_value,
                         const std::string& help, uint64_t* out) {
  *out = default_value;
  Register(name, help, std::to_string(default_value), Type::kUint, out);
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help, double* out) {
  *out = default_value;
  std::ostringstream text;
  text << default_value;
  Register(name, help, text.str(), Type::kDouble, out);
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help, bool* out) {
  *out = default_value;
  Register(name, help, default_value ? "true" : "false", Type::kBool, out);
}

void FlagParser::AddOptionalString(const std::string& name,
                                   const std::string& default_value,
                                   const std::string& bare_value,
                                   const std::string& help, std::string* out) {
  *out = default_value;
  Register(name, help, default_value, Type::kString, out, bare_value);
}

void FlagParser::AddUintList(const std::string& name,
                             const std::vector<uint64_t>& default_value,
                             const std::string& help,
                             std::vector<uint64_t>* out) {
  *out = default_value;
  Register(name, help, ListText(default_value), Type::kUintList, out);
}

void FlagParser::AddDoubleList(const std::string& name,
                               const std::vector<double>& default_value,
                               const std::string& help,
                               std::vector<double>* out) {
  *out = default_value;
  Register(name, help, ListText(default_value), Type::kDoubleList, out);
}

void FlagParser::Register(const std::string& name, const std::string& help,
                          std::string default_text, Type type, void* out,
                          std::optional<std::string> bare_value) {
  flags_.push_back(Flag{name, help, std::move(default_text), type, out,
                        std::move(bare_value)});
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Status FlagParser::Assign(const Flag& flag, const std::string& text) {
  switch (flag.type) {
    case Type::kString:
      *static_cast<std::string*>(flag.out) = text;
      return Status::OK();
    case Type::kUint:
      return ParseUint(flag.name, text, static_cast<uint64_t*>(flag.out));
    case Type::kDouble:
      return ParseDouble(flag.name, text, static_cast<double*>(flag.out));
    case Type::kUintList:
      return ParseList<uint64_t>(flag.name, text, ParseUint,
                                 static_cast<std::vector<uint64_t>*>(flag.out));
    case Type::kDoubleList:
      return ParseList<double>(flag.name, text, ParseDouble,
                               static_cast<std::vector<double>*>(flag.out));
    case Type::kBool: {
      if (text == "true" || text == "1") {
        *static_cast<bool*>(flag.out) = true;
      } else if (text == "false" || text == "0") {
        *static_cast<bool*>(flag.out) = false;
      } else {
        return Status::InvalidArgument("--" + flag.name +
                                       " expects true/false");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, char** argv) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument: " + arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    const std::string name = eq == std::string::npos ? arg : arg.substr(0, eq);
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    // A repeated flag is almost always a typo in a sweep script; reject it
    // rather than silently letting the last occurrence win.
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate flag --" + name);
    }
    if (eq == std::string::npos) {
      if (flag->bare_value.has_value()) {
        *static_cast<std::string*>(flag->out) = *flag->bare_value;
        continue;
      }
      if (flag->type != Type::kBool) {
        return Status::InvalidArgument("--" + name + " needs a value");
      }
      *static_cast<bool*>(flag->out) = true;
      continue;
    }
    MOBICACHE_RETURN_IF_ERROR(Assign(*flag, arg.substr(eq + 1)));
  }
  return Status::OK();
}

std::string FlagParser::Usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name << " (default " << flag.default_text << ")\n"
       << "      " << flag.help << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace mobicache
