// perfbench driver: one run of one workload.
//
//   perfbench_driver --workload synth_fc|serve_mix|explore_full|explore_budget
//                    --seed N --seconds S --trace 0|1 [--jobs J] [--smoke]
//   perfbench_driver --describe --workload W --seed N [--smoke]
//
// Prints the workload's own metric names with units, then, as the last line
// of stdout, one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics of the catalog for --trace 0, the per-layer ones for
// --trace 1.  Exits 0 when every correctness check passed, 1 when one did
// not, 2 when the run could not be made.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 "
                 "[--jobs J] [--smoke] [--describe]\n");
    return 2;
}

std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

void print_result(const run_config& config, const outcome& out)
{
    for (const auto& [name, value, unit] : out.named) {
        std::printf("%-30s %18.6f %s\n", name.c_str(), value, unit.c_str());
    }
    if (config.trace) {
        for (const metric_spec& spec : per_layer_metrics()) {
            const auto found = out.metrics.find(spec.name);
            std::printf("%-30s %18.6f %s\n", spec.name,
                        found == out.metrics.end() ? 0.0 : found->second, spec.unit);
        }
    }
    if (out.attempted > 0) {
        std::printf("%-30s %18.6f ratio\n", "fail_ratio",
                    static_cast<double>(out.failed) / static_cast<double>(out.attempted));
    }
    for (const std::string& error : out.errors) {
        std::printf("mismatch: %s\n", error.c_str());
    }
    std::string line = "{\"correct\": ";
    line += out.errors.empty() && out.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    const auto& catalog = config.trace ? per_layer_metrics() : end_to_end_metrics();
    bool first = true;
    for (const metric_spec& spec : catalog) {
        const auto found = out.metrics.find(spec.name);
        double value = found == out.metrics.end() ? 0.0 : found->second;
        if (!std::isfinite(value)) {
            value = 0;
        }
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", value);
        line += first ? "" : ", ";
        first = false;
        line += json_string(spec.name) + ": {\"value\": " + number +
                ", \"unit\": " + json_string(spec.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

} // namespace

int main(int argc, char** argv)
{
    run_config config;
    bool describe = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const bool has_value = i + 1 < argc;
            if (arg == "--workload" && has_value) {
                config.workload = argv[++i];
            } else if (arg == "--seed" && has_value) {
                config.seed = std::stoull(argv[++i]);
            } else if (arg == "--seconds" && has_value) {
                config.seconds = std::stod(argv[++i]);
            } else if (arg == "--trace" && has_value) {
                config.trace = std::strcmp(argv[++i], "0") != 0;
            } else if (arg == "--jobs" && has_value) {
                config.jobs = std::stoul(argv[++i]);
            } else if (arg == "--smoke") {
                config.smoke = true;
            } else if (arg == "--describe") {
                describe = true;
            } else {
                return usage();
            }
        }
        if (config.seconds <= 0 || config.jobs == 0) {
            return usage();
        }
        if (describe) {
            describe_inputs(config);
            return 0;
        }
        outcome out;
        if (config.workload == "synth_fc") {
            run_synth_fc(config, out);
        } else if (config.workload == "serve_mix") {
            run_serve_mix(config, out);
        } else if (config.workload == "explore_full") {
            run_explore_full(config, out);
        } else if (config.workload == "explore_budget") {
            run_explore_budget(config, out);
        } else {
            return usage();
        }
        print_result(config, out);
        std::fflush(stdout);
        return out.errors.empty() && out.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
