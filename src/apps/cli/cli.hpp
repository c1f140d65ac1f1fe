// fcqss — apps/cli/cli.hpp
// The shared command-line toolkit behind pn_tool (and any future front
// end): a subcommand registry plus the flag-parsing helpers every
// command uses.  A tool declares a table of `command` entries and hands
// argv to dispatch(); the registry owns command lookup, the usage
// listing, and the uniform failure contract:
//
//   exit 2   usage problems — unknown subcommand, unknown flag, a flag
//            missing its value, or an enum flag given a spelling outside
//            its accepted table (the error lists every accepted value)
//
// Integer flags go through int_option, enumeration flags through
// enum_option with an explicit choice table — there is deliberately no
// way to read an enum flag without one, so every enum-ish flag in every
// command rejects unknown values the same way.
#ifndef FCQSS_APPS_CLI_CLI_HPP
#define FCQSS_APPS_CLI_CLI_HPP

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace fcqss::cli {

/// One subcommand: `run` receives the full argv (argv[1] is the command
/// itself, its arguments start at argv[2]).
struct command {
    const char* name;
    /// Argument synopsis shown in the usage listing, e.g.
    /// "[--jobs N] model.pn...".
    const char* synopsis;
    int (*run)(int argc, char** argv);
};

/// Looks argv[1] up in `commands` and runs it.  Unknown or missing
/// subcommands print the usage listing (one line per command) and return
/// 2.  Exceptions escaping a command become "error: <what>" with exit 1.
int dispatch(const char* tool, const command* commands, std::size_t count,
             int argc, char** argv);

/// Prints the usage listing for `commands` to stderr; returns 2.
int usage(const char* tool, const command* commands, std::size_t count);

/// Parses "--flag N" style integer options; advances `i` past the value.
/// Exits 2 when the value is missing, not an integer, or outside long.
bool int_option(int argc, char** argv, int& i, const char* flag, long& out);

/// Parses "--flag SIZE" byte-size options: a non-negative integer with an
/// optional K/M/G suffix (binary multiples, case-insensitive, optional
/// trailing B or iB — "512K", "64MiB", "1g").  Advances `i` past the
/// value; exits 2 when the value is missing, malformed, or does not fit in
/// 64 bits.
bool byte_option(int argc, char** argv, int& i, const char* flag,
                 unsigned long long& out);

/// One accepted spelling of an enumeration flag.
template <typename E>
struct enum_choice {
    const char* spelling;
    E value;
};

/// Exits 2 with the full accepted list — out-of-line so the template
/// below stays header-only without pulling the message logic with it.
[[noreturn]] void reject_enum_value(const char* flag, const char* got,
                                    const char* const* spellings,
                                    std::size_t count);

[[noreturn]] void missing_value(const char* flag);

/// Parses "--flag value" style enumeration options against a fixed table
/// of accepted spellings; advances `i` past the value.  Unknown values
/// print every accepted spelling and exit 2, so all enum-ish flags fail
/// the same way (same contract as int_option).
template <typename E, std::size_t N>
bool enum_option(int argc, char** argv, int& i, const char* flag,
                 const enum_choice<E> (&choices)[N], E& out)
{
    if (std::strcmp(argv[i], flag) != 0) {
        return false;
    }
    if (i + 1 >= argc) {
        missing_value(flag);
    }
    const char* text = argv[++i];
    for (const enum_choice<E>& choice : choices) {
        if (std::strcmp(choice.spelling, text) == 0) {
            out = choice.value;
            return true;
        }
    }
    const char* spellings[N];
    for (std::size_t c = 0; c < N; ++c) {
        spellings[c] = choices[c].spelling;
    }
    reject_enum_value(flag, text, spellings, N);
}

/// Matches "--flag" (bare) or "--flag=FILE".  `file` keeps the FILE
/// part, empty for the bare form.
bool output_option(const char* arg, const char* flag, bool& enabled,
                   std::string& file);

/// Writes `text` to `path`; returns 1 (with a message) on failure.
int write_text_file(const std::string& path, const std::string& text);

/// Shared --stats[=FILE] / --trace=FILE handling: `enable()` right after
/// argument parsing, `emit()` once the command's work is done.  The
/// metrics JSONL goes to stdout unless --stats named a file; the Chrome
/// trace always needs a file (it is a single large JSON object).
struct telemetry_options {
    bool stats = false;
    std::string stats_file;
    bool trace = false;
    std::string trace_file;

    bool parse(const char* arg);
    [[nodiscard]] int enable() const;
    [[nodiscard]] int emit() const;
};

} // namespace fcqss::cli

#endif // FCQSS_APPS_CLI_CLI_HPP
