#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace liod {
namespace {

enum class Color { kRed, kGreen };

const char* ColorName(Color color) { return color == Color::kRed ? "red" : "green"; }

/// One table over every kind of entry, with the targets it writes.
struct Fixture {
  bool verbose = false;
  std::uint64_t count = 7;
  double ratio = 0.5;
  std::string path = "default";
  std::vector<std::string> names = {"a"};
  std::vector<std::uint64_t> sizes = {1};
  Color color = Color::kRed;
  std::vector<Color> colors = {Color::kRed};
  FlagTable table;

  Fixture() {
    table.Switch("--verbose", &verbose, "say more")
        .Number("--count", &count, "N", "how many")
        .Number("--ratio", &ratio, "F", "a fraction")
        .String("--path", &path, "FILE", "where to write")
        .List("--names", &names, "a,b", "some names")
        .List("--sizes", &sizes, "a,b", "some sizes")
        .Choice("--color", &color, NamedChoices<Color>({Color::kRed, Color::kGreen}, ColorName),
                "one color")
        .ChoiceList("--colors", &colors,
                    NamedChoices<Color>({Color::kRed, Color::kGreen}, ColorName), "colors");
  }

  FlagTable::Outcome Parse(std::vector<const char*> args, std::string* message) {
    args.insert(args.begin(), "prog");
    return table.Parse(static_cast<int>(args.size()), args.data(), 1, message);
  }
};

TEST(FlagTableTest, NoFlagsKeepDefaults) {
  Fixture f;
  std::string message;
  EXPECT_EQ(f.Parse({}, &message), FlagTable::Outcome::kOk);
  EXPECT_FALSE(f.verbose);
  EXPECT_EQ(f.count, 7u);
  EXPECT_EQ(f.path, "default");
  EXPECT_EQ(f.names, std::vector<std::string>({"a"}));
}

TEST(FlagTableTest, EveryKindWritesItsTarget) {
  Fixture f;
  std::string message;
  ASSERT_EQ(f.Parse({"--verbose", "--count", "42", "--ratio", "0.25", "--path", "x.csv",
                     "--names", "p,q", "--sizes", "2,4,8", "--color", "green", "--colors",
                     "green,red"},
                    &message),
            FlagTable::Outcome::kOk)
      << message;
  EXPECT_TRUE(f.verbose);
  EXPECT_EQ(f.count, 42u);
  EXPECT_DOUBLE_EQ(f.ratio, 0.25);
  EXPECT_EQ(f.path, "x.csv");
  EXPECT_EQ(f.names, std::vector<std::string>({"p", "q"}));
  EXPECT_EQ(f.sizes, std::vector<std::uint64_t>({2, 4, 8}));
  EXPECT_EQ(f.color, Color::kGreen);
  EXPECT_EQ(f.colors, std::vector<Color>({Color::kGreen, Color::kRed}));
}

TEST(FlagTableTest, UnknownFlagIsAUsageError) {
  Fixture f;
  std::string message;
  EXPECT_EQ(f.Parse({"--count", "3", "--cuont", "4"}, &message),
            FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "unknown flag --cuont");
  EXPECT_EQ(f.Parse({"stray"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "unknown flag stray");
}

TEST(FlagTableTest, MissingValueAtTheEndIsAUsageError) {
  Fixture f;
  std::string message;
  EXPECT_EQ(f.Parse({"--verbose", "--path"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "missing value for --path");
}

TEST(FlagTableTest, MalformedAndOverflowingNumbersAreUsageErrors) {
  for (const char* bad : {"abc", "10k", "", " 5", "-1", "18446744073709551616"}) {
    Fixture f;
    std::string message;
    EXPECT_EQ(f.Parse({"--count", bad}, &message), FlagTable::Outcome::kUsageError) << bad;
    EXPECT_EQ(message, std::string("invalid value for --count: '") + bad + "'");
    EXPECT_EQ(f.count, 7u);
  }
  for (const char* bad : {"nan", "inf", "1e999", "0.5x"}) {
    Fixture f;
    std::string message;
    EXPECT_EQ(f.Parse({"--ratio", bad}, &message), FlagTable::Outcome::kUsageError) << bad;
    EXPECT_EQ(message, std::string("invalid value for --ratio: '") + bad + "'");
  }
  Fixture f;
  std::string message;
  EXPECT_EQ(f.Parse({"--count", "18446744073709551615"}, &message), FlagTable::Outcome::kOk);
  EXPECT_EQ(f.count, UINT64_MAX);
}

TEST(FlagTableTest, SwitchTakesNoValue) {
  Fixture f;
  std::string message;
  // The word after a switch is the next flag, not its value.
  EXPECT_EQ(f.Parse({"--verbose", "--count", "1"}, &message), FlagTable::Outcome::kOk);
  EXPECT_TRUE(f.verbose);
  EXPECT_EQ(f.count, 1u);
  EXPECT_EQ(f.Parse({"--verbose", "true"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "unknown flag true");
}

TEST(FlagTableTest, ListsSkipEmptySegmentsAndReplaceTheDefault) {
  Fixture f;
  std::string message;
  ASSERT_EQ(f.Parse({"--names", ",x,,y,", "--sizes", "3,,5"}, &message),
            FlagTable::Outcome::kOk);
  EXPECT_EQ(f.names, std::vector<std::string>({"x", "y"}));
  EXPECT_EQ(f.sizes, std::vector<std::uint64_t>({3, 5}));
  // A repeated list flag replaces, it does not append.
  ASSERT_EQ(f.Parse({"--sizes", "9"}, &message), FlagTable::Outcome::kOk);
  EXPECT_EQ(f.sizes, std::vector<std::uint64_t>({9}));
}

TEST(FlagTableTest, ListWithoutSegmentsOrWithABadOneIsAUsageError) {
  Fixture f;
  std::string message;
  EXPECT_EQ(f.Parse({"--names", ",,"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "invalid value for --names: ',,'");
  EXPECT_EQ(f.Parse({"--sizes", ""}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "invalid value for --sizes: ''");
  EXPECT_EQ(f.Parse({"--sizes", "1,x,3"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "invalid value for --sizes: 'x'");
}

TEST(FlagTableTest, UnknownChoiceNamesTheAllowedValues) {
  Fixture f;
  std::string message;
  EXPECT_EQ(f.Parse({"--color", "blue"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "invalid value for --color: 'blue' (expected red|green)");
  EXPECT_EQ(f.color, Color::kRed);
  EXPECT_EQ(f.Parse({"--colors", "red,grene"}, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "invalid value for --colors: 'grene' (expected red|green)");
}

TEST(FlagTableTest, NamedChoicesWithoutANameFunctionUseTheValues) {
  std::string pick = "b";
  FlagTable table;
  table.Choice("--pick", &pick, NamedChoices(std::vector<std::string>{"a", "b"}), "a or b");
  const char* argv[] = {"prog", "--pick", "a"};
  std::string message;
  ASSERT_EQ(table.Parse(3, argv, 1, &message), FlagTable::Outcome::kOk);
  EXPECT_EQ(pick, "a");
  argv[2] = "c";
  EXPECT_EQ(table.Parse(3, argv, 1, &message), FlagTable::Outcome::kUsageError);
  EXPECT_EQ(message, "invalid value for --pick: 'c' (expected a|b)");
}

TEST(FlagTableTest, HelpListsEveryEntryWithItsHelp) {
  for (const char* help : {"--help", "-h"}) {
    Fixture f;
    std::string message;
    ASSERT_EQ(f.Parse({"--count", "3", help, "--bogus"}, &message), FlagTable::Outcome::kHelp);
    EXPECT_EQ(message.rfind("usage: prog [flags]\n", 0), 0u) << message;
    for (const char* line :
         {"--verbose ", "say more", "--count N ", "how many", "--ratio F ", "a fraction",
          "--path FILE ", "where to write", "--names a,b ", "some names", "--sizes a,b ",
          "some sizes", "--color red|green ", "one color", "--colors red|green,... ",
          "colors", "-h, --help"}) {
      EXPECT_NE(message.find(line), std::string::npos) << line << "\n" << message;
    }
  }
}

TEST(FlagTableTest, UsageNamesTheProgramAndItsSubcommand) {
  FlagTable table;
  const char* argv[] = {"/some/dir/tool", "run", "--help"};
  std::string message;
  ASSERT_EQ(table.Parse(3, argv, 2, &message), FlagTable::Outcome::kHelp);
  EXPECT_EQ(message.rfind("usage: tool run [flags]\n", 0), 0u) << message;
}

TEST(FlagTableTest, ParseMainTurnsTheOutcomeIntoAnExitStatus) {
  Fixture f;
  const char* ok[] = {"prog", "--count", "5"};
  EXPECT_EQ(f.table.ParseMain(3, ok), std::nullopt);
  EXPECT_EQ(f.count, 5u);
  const char* bad[] = {"prog", "--count"};
  EXPECT_EQ(f.table.ParseMain(2, bad), 2);
  const char* help[] = {"prog", "-h"};
  EXPECT_EQ(f.table.ParseMain(2, help), 0);
}

}  // namespace
}  // namespace liod
