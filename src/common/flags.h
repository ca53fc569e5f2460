#ifndef LIOD_COMMON_FLAGS_H_
#define LIOD_COMMON_FLAGS_H_

#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parse_number.h"

namespace liod {

/// A binary's command-line flags as one table of entries (name, target,
/// help). One argv loop parses every flag against it and --help prints the
/// usage from the same entries, so a flag is accepted exactly when it is
/// documented. An entry is one of five kinds: a switch (no value), a number
/// (the whole value must parse, see ParseNumber), a string, a comma list
/// (empty segments are skipped; a list with no segment is invalid) or a
/// choice among named values. Parsing stops at the first unknown flag,
/// missing value, malformed number or unknown choice, with an error that
/// names the flag.
class FlagTable {
 public:
  enum class Outcome { kOk, kHelp, kUsageError };

  /// A choice entry's accepted names, each with the value it selects.
  template <typename T>
  using Choices = std::vector<std::pair<std::string, T>>;

  /// --NAME with no value: sets *target to true.
  FlagTable& Switch(std::string name, bool* target, std::string help) {
    return Scalar(std::move(name), target, "", std::move(help), "",
                  [](const std::string&, bool* out) {
                    *out = true;
                    return true;
                  });
  }

  /// --NAME N; `meta` is the value's placeholder in the usage text.
  template <typename T>
  FlagTable& Number(std::string name, T* target, std::string meta, std::string help) {
    return Scalar(std::move(name), target, std::move(meta), std::move(help), "",
                  ParseValue<T>);
  }

  /// --NAME TEXT.
  FlagTable& String(std::string name, std::string* target, std::string meta,
                    std::string help) {
    return Scalar(std::move(name), target, std::move(meta), std::move(help), "",
                  ParseValue<std::string>);
  }

  /// --NAME a,b,c of strings or numbers: replaces *target.
  template <typename T>
  FlagTable& List(std::string name, std::vector<T>* target, std::string meta,
                  std::string help) {
    return Listed(std::move(name), target, std::move(meta), std::move(help), "",
                  ParseValue<T>);
  }

  /// --NAME CHOICE: sets *target to the value `choices` gives CHOICE.
  template <typename T>
  FlagTable& Choice(std::string name, T* target, Choices<T> choices, std::string help) {
    std::string names = Names(choices);
    return Scalar(std::move(name), target, names, std::move(help), names,
                  Pick(std::move(choices)));
  }

  /// --NAME a,b,c of choices: replaces *target.
  template <typename T>
  FlagTable& ChoiceList(std::string name, std::vector<T>* target, Choices<T> choices,
                        std::string help) {
    std::string names = Names(choices);
    return Listed(std::move(name), target, names + ",...", std::move(help), names,
                  Pick(std::move(choices)));
  }

  /// Parses argv[first, argc) into the targets. On kHelp (--help or -h)
  /// *message is the usage text, on kUsageError the one-line error.
  /// argv[0, first) name the program in the usage text ("liod_cli run").
  Outcome Parse(int argc, const char* const* argv, int first, std::string* message) const;

  /// Parse for a binary's main(): prints the usage text to stdout on --help
  /// and the error to stderr on a usage error, and returns the status to exit
  /// with then (0 or 2). nullopt: the flags parsed, run.
  std::optional<int> ParseMain(int argc, const char* const* argv, int first = 1) const;

 private:
  struct Entry {
    std::string name;
    std::string meta;     ///< the value's placeholder; empty for a switch
    std::string help;
    std::string choices;  ///< "a|b|c" for a choice, named in its error
    /// Parses one value, or one segment of a comma list, into the target.
    std::function<bool(const std::string&)> set;
    /// A comma list's: empties the target before its segments are set.
    std::function<void()> clear;
  };

  /// "usage: PROGRAM [flags]" and one line per entry.
  std::string Usage(const std::string& program) const;

  template <typename T>
  static bool ParseValue(const std::string& text, T* out) {
    if constexpr (std::is_same_v<T, std::string>) {
      *out = text;
      return true;
    } else {
      return ParseNumber(text.c_str(), out);
    }
  }

  template <typename T>
  static auto Pick(Choices<T> choices) {
    return [choices = std::move(choices)](const std::string& text, T* out) {
      for (const auto& [name, value] : choices) {
        if (name == text) {
          *out = value;
          return true;
        }
      }
      return false;
    };
  }

  template <typename T>
  static std::string Names(const Choices<T>& choices) {
    std::string names;
    for (const auto& choice : choices) names += (names.empty() ? "" : "|") + choice.first;
    return names;
  }

  template <typename T, typename ParseFn>
  FlagTable& Scalar(std::string name, T* target, std::string meta, std::string help,
                    std::string choices, ParseFn parse) {
    entries_.push_back({std::move(name), std::move(meta), std::move(help), std::move(choices),
                        [target, parse](const std::string& text) { return parse(text, target); },
                        nullptr});
    return *this;
  }

  template <typename T, typename ParseFn>
  FlagTable& Listed(std::string name, std::vector<T>* target, std::string meta,
                    std::string help, std::string choices, ParseFn parse) {
    entries_.push_back({std::move(name), std::move(meta), std::move(help), std::move(choices),
                        [target, parse](const std::string& text) {
                          T value{};
                          if (!parse(text, &value)) return false;
                          target->push_back(std::move(value));
                          return true;
                        },
                        [target] { target->clear(); }});
    return *this;
  }

  std::vector<Entry> entries_;
};

/// Choices named by `name_of` (BufferPolicyName names BufferPolicy::kLru
/// "lru"); with no `name_of`, each value is its own name.
template <typename T, typename NameOf = std::identity>
FlagTable::Choices<T> NamedChoices(const std::vector<T>& values, NameOf name_of = {}) {
  FlagTable::Choices<T> choices;
  for (const T& value : values) choices.emplace_back(name_of(value), value);
  return choices;
}

}  // namespace liod

#endif  // LIOD_COMMON_FLAGS_H_
