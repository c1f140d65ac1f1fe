#include "apps/cli/cli.hpp"

#include <cerrno>
#include <exception>

#include "obs/obs.hpp"

namespace fcqss::cli {

int usage(const char* tool, const command* commands, std::size_t count)
{
    std::fprintf(stderr, "usage:\n");
    for (std::size_t i = 0; i < count; ++i) {
        std::fprintf(stderr, "  %s %s %s\n", tool, commands[i].name,
                     commands[i].synopsis);
    }
    return 2;
}

int dispatch(const char* tool, const command* commands, std::size_t count,
             int argc, char** argv)
{
    if (argc < 2) {
        return usage(tool, commands, count);
    }
    for (std::size_t i = 0; i < count; ++i) {
        if (std::strcmp(argv[1], commands[i].name) == 0) {
            try {
                return commands[i].run(argc, argv);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 1;
            }
        }
    }
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return usage(tool, commands, count);
}

bool int_option(int argc, char** argv, int& i, const char* flag, long& out)
{
    if (std::strcmp(argv[i], flag) != 0) {
        return false;
    }
    if (i + 1 >= argc) {
        missing_value(flag);
    }
    const char* text = argv[++i];
    char* end = nullptr;
    errno = 0;
    out = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s needs an integer, got '%s'\n", flag, text);
        std::exit(2);
    }
    return true;
}

bool byte_option(int argc, char** argv, int& i, const char* flag,
                 unsigned long long& out)
{
    if (std::strcmp(argv[i], flag) != 0) {
        return false;
    }
    if (i + 1 >= argc) {
        missing_value(flag);
    }
    const char* text = argv[++i];
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    const bool out_of_range = errno == ERANGE;
    unsigned long long scale = 1;
    if (end != text) {
        switch (*end) {
        case 'k': case 'K': scale = 1ULL << 10; ++end; break;
        case 'm': case 'M': scale = 1ULL << 20; ++end; break;
        case 'g': case 'G': scale = 1ULL << 30; ++end; break;
        default: break;
        }
        if (scale != 1 && (*end == 'i' || *end == 'I')) {
            ++end;
        }
        if (*end == 'b' || *end == 'B') {
            ++end;
        }
    }
    if (end == text || *end != '\0' || text[0] == '-' || out_of_range ||
        (scale != 1 && value > ~0ULL / scale)) {
        std::fprintf(stderr,
                     "%s needs a byte size (integer with optional K/M/G "
                     "suffix), got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    out = value * scale;
    return true;
}

void missing_value(const char* flag)
{
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
}

void reject_enum_value(const char* flag, const char* got,
                       const char* const* spellings, std::size_t count)
{
    std::string accepted;
    for (std::size_t i = 0; i < count; ++i) {
        if (!accepted.empty()) {
            accepted += ", ";
        }
        accepted += spellings[i];
    }
    std::fprintf(stderr, "unknown %s value '%s': accepted values are %s\n", flag,
                 got, accepted.c_str());
    std::exit(2);
}

bool output_option(const char* arg, const char* flag, bool& enabled,
                   std::string& file)
{
    const std::size_t length = std::strlen(flag);
    if (std::strncmp(arg, flag, length) != 0) {
        return false;
    }
    if (arg[length] == '\0') {
        enabled = true;
        file.clear();
        return true;
    }
    if (arg[length] == '=') {
        enabled = true;
        file = arg + length + 1;
        return true;
    }
    return false;
}

int write_text_file(const std::string& path, const std::string& text)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    return 0;
}

bool telemetry_options::parse(const char* arg)
{
    return output_option(arg, "--stats", stats, stats_file) ||
           output_option(arg, "--trace", trace, trace_file);
}

int telemetry_options::enable() const
{
    if (trace && trace_file.empty()) {
        std::fprintf(stderr, "--trace needs a file: --trace=FILE\n");
        return 2;
    }
    obs::set_stats_enabled(stats);
    obs::set_tracing_enabled(trace);
    return 0;
}

int telemetry_options::emit() const
{
    int failures = 0;
    if (trace) {
        obs::set_tracing_enabled(false);
        failures += write_text_file(trace_file, obs::chrome_trace_json());
    }
    if (stats) {
        const std::string jsonl = obs::metrics_jsonl();
        if (stats_file.empty()) {
            std::printf("%s", jsonl.c_str());
        } else {
            failures += write_text_file(stats_file, jsonl);
        }
    }
    return failures ? 1 : 0;
}

} // namespace fcqss::cli
