#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

const std::vector<metric_spec>& end_to_end_metrics()
{
    static const std::vector<metric_spec> specs = {
        {"setup_s", "s"},
        {"throughput_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<metric_spec>& per_layer_metrics()
{
    static const std::vector<metric_spec> specs = {
        {"pnio.parse_ms", "ms"},
        {"pnio.parse_mb_per_s", "MB/s"},
        {"pn.classify_ms", "ms"},
        {"pn.structural_ms", "ms"},
        {"qss.schedule_ms", "ms"},
        {"qss.check_ms", "ms"},
        {"qss.enum_reduce_ms", "ms"},
        {"qss.allocations", "count"},
        {"qss.reductions", "count"},
        {"qss.useful_ratio", "ratio"},
        {"qss.slowest_net_ms", "ms"},
        {"qss.resource_limits", "count"},
        {"qss.def31_gap_nets", "count"},
        {"qss.partition_ms", "ms"},
        {"qss.tasks", "count"},
        {"codegen.generate_ms", "ms"},
        {"codegen.emit_ms", "ms"},
        {"codegen.c_bytes", "B"},
        {"codegen.c_bytes_per_net", "B"},
        {"pipeline.decided_ratio", "ratio"},
        {"pipeline.worker_util", "ratio"},
        {"pipeline.tail_ms", "ms"},
        {"svc.handle_line_p50_us", "us"},
        {"svc.handle_line_p99_us", "us"},
        {"svc.reply_bytes_mean", "B"},
        {"svc.gen_late_max_ms", "ms"},
        {"service.queue_wait_p50_ms", "ms"},
        {"service.queue_wait_p99_ms", "ms"},
        {"service.dedupe_hit_ratio", "ratio"},
        {"service.syntheses", "count"},
        {"service.rejected", "count"},
        {"service.queue_depth_max", "count"},
        {"explore.states", "count"},
        {"explore.edges", "count"},
        {"explore.arena_bytes_per_state", "B"},
        {"pn.par.phase_a_ms", "ms"},
        {"pn.par.phase_b_ms", "ms"},
        {"pn.par.phase_e_ms", "ms"},
        {"pn.par.shard_imbalance", "ratio"},
        {"pn.par.candidates_per_state", "ratio"},
        {"pn.store.probes_per_insert", "ratio"},
        {"pn.store.table_resizes", "count"},
        {"pn.store.budget_rejects", "count"},
        {"pn.mem.evictions", "count"},
        {"pn.mem.decode_hit_ratio", "ratio"},
        {"pn.mem.spill_bytes", "B"},
        {"trace.spans", "count"},
        {"trace.overhead_pct", "%"},
    };
    return specs;
}

void outcome::mismatch(const std::string& message)
{
    ++failed;
    if (errors.size() < 20) {
        errors.push_back(message);
    }
}

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
        }
    }
    return 0;
}

namespace {

thread_local std::uint64_t t_current_span = 0;

std::uint64_t thread_tag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

} // namespace

tracer::scope::scope(tracer& owner, const char* name, std::uint64_t request)
    : owner_(owner)
{
    {
        std::lock_guard lock(owner_.mutex_);
        record_.id = owner_.next_id_++;
    }
    record_.name = name;
    record_.request = request;
    record_.parent = t_current_span;
    record_.thread = thread_tag();
    t_current_span = record_.id;
    record_.start = clock_type::now();
}

tracer::scope::~scope()
{
    record_.end = clock_type::now();
    t_current_span = record_.parent;
    std::lock_guard lock(owner_.mutex_);
    owner_.spans_.push_back(record_);
}

std::vector<span_record> tracer::spans() const
{
    std::lock_guard lock(mutex_);
    return spans_;
}

double tracer::total_ms(const char* name) const
{
    double sum = 0;
    for (const double ms : durations_ms(name)) {
        sum += ms;
    }
    return sum;
}

std::vector<double> tracer::durations_ms(const char* name) const
{
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const span_record& s : spans_) {
        if (std::string_view(s.name) == name) {
            out.push_back(s.ms());
        }
    }
    return out;
}

std::size_t tracer::size() const
{
    std::lock_guard lock(mutex_);
    return spans_.size();
}

void tracer::clear()
{
    std::lock_guard lock(mutex_);
    spans_.clear();
}

} // namespace perfbench
