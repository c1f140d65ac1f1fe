// perfbench — shared driver pieces: run configuration, the metric catalog,
// the outcome every workload fills, quantiles, peak RSS, and the in-memory
// span recorder the traced run wraps around calls into each layer.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(clock_type::time_point from, clock_type::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

[[nodiscard]] inline double seconds_since(clock_type::time_point from)
{
    return std::chrono::duration<double>(clock_type::now() - from).count();
}

struct run_config {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /// Tiny inputs, for the benchmark's own tests.
    bool smoke = false;
    /// Worker threads of the program under test (the tests compare 1 and 4).
    std::size_t jobs = 4;
};

struct metric_spec {
    const char* name;
    const char* unit;
};

/// Reported by every plain run (--trace 0), on every workload.
[[nodiscard]] const std::vector<metric_spec>& end_to_end_metrics();
/// Reported by every traced run (--trace 1); 0 where a workload does not
/// exercise the layer.
[[nodiscard]] const std::vector<metric_spec>& per_layer_metrics();

/// What one run measured and checked.
struct outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Correctness mismatches; any entry makes the run incorrect.
    std::vector<std::string> errors;
    std::map<std::string, double> metrics;
    /// The workload's own metric names (as the benchmark doc lists them),
    /// printed before the JSON line: (name, value, unit).
    std::vector<std::tuple<std::string, double, std::string>> named;

    /// Records one correctness mismatch.  The first few are kept verbatim.
    void mismatch(const std::string& message);
    void name(std::string metric, double value, std::string unit)
    {
        named.emplace_back(std::move(metric), value, std::move(unit));
    }
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/// High-water resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Runs `make` `repeats` times and returns the median wall time in seconds;
/// the last result is moved into `out`.
template <typename T, typename Make>
double median_setup(int repeats, T& out, Make&& make)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        const auto start = clock_type::now();
        out = make();
        times.push_back(seconds_since(start));
    }
    return median(times);
}

// -- Tracing -----------------------------------------------------------------
//
// Spans live in memory and are aggregated when the run ends.  A span is one
// call into a layer's public function, made from the driver: its name, the
// request (net or wire request) it belongs to, the span that caused it, the
// thread, and its start and end.

struct span_record {
    const char* name = nullptr;
    std::uint64_t request = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t thread = 0;
    clock_type::time_point start;
    clock_type::time_point end;

    [[nodiscard]] double ms() const { return ms_between(start, end); }
};

class tracer {
public:
    /// One open span; records itself on destruction.  Nested scopes on the
    /// same thread become children of the enclosing one.
    class scope {
    public:
        scope(tracer& owner, const char* name, std::uint64_t request);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer& owner_;
        span_record record_;
    };

    [[nodiscard]] std::vector<span_record> spans() const;
    /// Summed duration of every span named `name`, in ms.
    [[nodiscard]] double total_ms(const char* name) const;
    /// Durations of every span named `name`, in ms.
    [[nodiscard]] std::vector<double> durations_ms(const char* name) const;
    [[nodiscard]] std::size_t size() const;
    void clear();

private:
    mutable std::mutex mutex_;
    std::vector<span_record> spans_;
    std::uint64_t next_id_ = 1;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
