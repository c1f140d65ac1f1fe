// apps/cli flag parsing: int_option, byte_option and enum_option accept
// what they document and exit 2 with their usual message on anything else —
// including numbers that parse but do not fit (strtol/strtoull ERANGE),
// which would otherwise saturate into a silently unbounded budget, and
// enum spellings outside the flag's table, which list the accepted ones.
#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "apps/cli/cli.hpp"

namespace fcqss::cli {
namespace {

/// argv for one "--flag value" pair; the strings live as long as the
/// object.
struct args {
    std::vector<std::string> text;
    std::vector<char*> argv;

    args(const char* flag, const char* value) : text{"tool", flag, value}
    {
        for (std::string& s : text) {
            argv.push_back(s.data());
        }
    }
    int argc() const { return static_cast<int>(argv.size()); }
};

long parse_int(const char* value)
{
    args a("--n", value);
    int i = 1;
    long out = 0;
    EXPECT_TRUE(int_option(a.argc(), a.argv.data(), i, "--n", out));
    EXPECT_EQ(i, 2);
    return out;
}

unsigned long long parse_bytes(const char* value)
{
    args a("--b", value);
    int i = 1;
    unsigned long long out = 0;
    EXPECT_TRUE(byte_option(a.argc(), a.argv.data(), i, "--b", out));
    return out;
}

enum class letter { a, b };

constexpr enum_choice<letter> letter_choices[] = {
    {"a", letter::a},
    {"b", letter::b},
};

letter parse_letter(const char* value)
{
    args a("--x", value);
    int i = 1;
    letter out = letter::a;
    EXPECT_TRUE(enum_option(a.argc(), a.argv.data(), i, "--x", letter_choices, out));
    EXPECT_EQ(i, 2);
    return out;
}

TEST(cli, int_option_parses_the_full_long_range)
{
    EXPECT_EQ(parse_int("42"), 42);
    EXPECT_EQ(parse_int("-7"), -7);
    EXPECT_EQ(parse_int(std::to_string(LONG_MAX).c_str()), LONG_MAX);
    EXPECT_EQ(parse_int(std::to_string(LONG_MIN).c_str()), LONG_MIN);
}

TEST(cli, byte_option_parses_sizes_up_to_64_bits)
{
    EXPECT_EQ(parse_bytes("512K"), 512ULL << 10);
    EXPECT_EQ(parse_bytes("64MiB"), 64ULL << 20);
    EXPECT_EQ(parse_bytes("18446744073709551615"), ULLONG_MAX);
    EXPECT_EQ(parse_bytes("17179869183G"), 17179869183ULL << 30);
}

TEST(cli, enum_option_maps_each_spelling_and_skips_other_flags)
{
    EXPECT_EQ(parse_letter("a"), letter::a);
    EXPECT_EQ(parse_letter("b"), letter::b);
    args other("--y", "z");
    int i = 1;
    letter out = letter::b;
    EXPECT_FALSE(enum_option(other.argc(), other.argv.data(), i, "--x", letter_choices,
                             out));
    EXPECT_EQ(i, 1);
    EXPECT_EQ(out, letter::b);
}

TEST(cli_death, int_option_rejects_out_of_range_and_malformed_values)
{
    EXPECT_EXIT(parse_int("99999999999999999999999"), ::testing::ExitedWithCode(2),
                "--n needs an integer, got '99999999999999999999999'");
    EXPECT_EXIT(parse_int("-99999999999999999999999"), ::testing::ExitedWithCode(2),
                "--n needs an integer");
    EXPECT_EXIT(parse_int("12x"), ::testing::ExitedWithCode(2), "--n needs an integer");
    EXPECT_EXIT(parse_int(""), ::testing::ExitedWithCode(2), "--n needs an integer");
}

TEST(cli_death, byte_option_rejects_out_of_range_and_malformed_values)
{
    EXPECT_EXIT(parse_bytes("99999999999999999999"), ::testing::ExitedWithCode(2),
                "--b needs a byte size .*got '99999999999999999999'");
    EXPECT_EXIT(parse_bytes("18446744073709551616"), ::testing::ExitedWithCode(2),
                "--b needs a byte size");
    EXPECT_EXIT(parse_bytes("17179869184G"), ::testing::ExitedWithCode(2),
                "--b needs a byte size");
    EXPECT_EXIT(parse_bytes("-1"), ::testing::ExitedWithCode(2), "--b needs a byte size");
    EXPECT_EXIT(parse_bytes("1T"), ::testing::ExitedWithCode(2), "--b needs a byte size");
}

TEST(cli_death, enum_option_rejects_unknown_spellings_and_lists_the_accepted_ones)
{
    EXPECT_EXIT(parse_letter("z"), ::testing::ExitedWithCode(2),
                "unknown --x value 'z': accepted values are a, b");
    EXPECT_EXIT(parse_letter("A"), ::testing::ExitedWithCode(2),
                "unknown --x value 'A': accepted values are a, b");
}

TEST(cli_death, a_flag_without_its_value_exits_2)
{
    std::vector<std::string> text{"tool", "--n"};
    std::vector<char*> argv{text[0].data(), text[1].data()};
    int i = 1;
    long out = 0;
    EXPECT_EXIT(int_option(2, argv.data(), i, "--n", out), ::testing::ExitedWithCode(2),
                "--n needs a value");
}

} // namespace
} // namespace fcqss::cli
