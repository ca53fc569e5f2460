#include "common/flags.h"

#include <cstdio>

namespace liod {

namespace {

/// "liod_cli run" from argv[0, first): the program's base name and its
/// subcommand.
std::string ProgramName(const char* const* argv, int first) {
  std::string program = argv[0];
  program.erase(0, program.rfind('/') + 1);
  for (int i = 1; i < first; ++i) program = program + " " + argv[i];
  return program;
}

/// The non-empty segments of "a,b,,c".
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

FlagTable::Outcome FlagTable::Parse(int argc, const char* const* argv, int first,
                                    std::string* message) const {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      *message = Usage(ProgramName(argv, first));
      return Outcome::kHelp;
    }
    const Entry* entry = nullptr;
    for (const Entry& e : entries_) {
      if (e.name == flag) entry = &e;
    }
    if (entry == nullptr) {
      *message = "unknown flag " + flag;
      return Outcome::kUsageError;
    }
    if (entry->meta.empty()) {
      entry->set("");
      continue;
    }
    if (i + 1 == argc) {
      *message = "missing value for " + flag;
      return Outcome::kUsageError;
    }
    auto invalid = [&](const std::string& text) {
      *message = "invalid value for " + flag + ": '" + text + "'";
      if (!entry->choices.empty()) *message += " (expected " + entry->choices + ")";
      return Outcome::kUsageError;
    };
    const std::string value = argv[++i];
    if (!entry->clear) {
      if (!entry->set(value)) return invalid(value);
      continue;
    }
    entry->clear();
    const std::vector<std::string> segments = SplitList(value);
    if (segments.empty()) return invalid(value);
    for (const std::string& segment : segments) {
      if (!entry->set(segment)) return invalid(segment);
    }
  }
  return Outcome::kOk;
}

std::optional<int> FlagTable::ParseMain(int argc, const char* const* argv, int first) const {
  std::string message;
  switch (Parse(argc, argv, first, &message)) {
    case Outcome::kOk:
      return std::nullopt;
    case Outcome::kHelp:
      std::fputs(message.c_str(), stdout);
      return 0;
    case Outcome::kUsageError:
      break;
  }
  std::fprintf(stderr, "%s\n(%s --help lists the flags)\n", message.c_str(),
               ProgramName(argv, first).c_str());
  return 2;
}

std::string FlagTable::Usage(const std::string& program) const {
  constexpr std::size_t kHelpColumn = 28;
  std::string text = "usage: " + program + " [flags]\n";
  for (const Entry& e : entries_) {
    std::string line = "  " + e.name + (e.meta.empty() ? "" : " " + e.meta);
    line += line.size() < kHelpColumn ? std::string(kHelpColumn - line.size(), ' ')
                                      : "\n" + std::string(kHelpColumn, ' ');
    text += line + e.help + "\n";
  }
  return text + "  -h, --help" + std::string(kHelpColumn - 12, ' ') +
         "print this text and exit\n";
}

}  // namespace liod
