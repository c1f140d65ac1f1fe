// Throughput of the parallel batch-synthesis pipeline: nets/sec over a
// generated free-choice workload at 1, 2, 4, and 8 worker threads.  The
// report section prints the measured scaling series (plus the workload's
// status mix, so the numbers are interpretable); the google-benchmark
// section times the same batches.  Per-net statuses are independent of the
// thread count — test_pipeline pins that — so the series differ only in
// wall time.
#include "bench_util.hpp"

#include <memory>
#include <vector>

#include "pipeline/net_generator.hpp"
#include "pipeline/synthesis_pipeline.hpp"

namespace {

using namespace fcqss;

constexpr std::uint64_t kSeed = 20260728;
constexpr std::size_t kBatch = 96;

const std::vector<pipeline::net_source>& workload()
{
    static const std::vector<pipeline::net_source> sources = [] {
        pipeline::generator_options options;
        options.family = pipeline::net_family::free_choice;
        options.sources = 2;
        options.depth = 5;
        options.token_load = 2;
        options.defect_percent = 10; // keep the rejection paths in the mix
        pipeline::net_generator generator(kSeed, options);
        std::vector<pipeline::net_source> out;
        out.reserve(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
            out.push_back(pipeline::net_source::from_net(generator.next()));
        }
        return out;
    }();
    return sources;
}

pipeline::batch_report synthesize_batch(std::size_t jobs)
{
    pipeline::pipeline_options options;
    options.jobs = jobs;
    const pipeline::synthesis_pipeline pipe(options);
    return pipe.run(workload());
}

void report()
{
    benchutil::heading("Generated workload (seed " + std::to_string(kSeed) + ")");
    const pipeline::batch_report serial = synthesize_batch(1);
    benchutil::row("nets", std::to_string(serial.results.size()));
    benchutil::row("synthesized ok",
                   std::to_string(serial.count(pipeline::pipeline_status::ok)));
    benchutil::row(
        "rejected not-free-choice",
        std::to_string(serial.count(pipeline::pipeline_status::not_free_choice)));
    benchutil::row(
        "rejected not-schedulable",
        std::to_string(serial.count(pipeline::pipeline_status::not_schedulable)));
    benchutil::row(
        "resource-limit",
        std::to_string(serial.count(pipeline::pipeline_status::resource_limit)));

    benchutil::heading("Batch synthesis throughput vs worker threads");
    const double base = serial.nets_per_second();
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
        // The jobs=1 probe above doubles as the serial baseline row.
        const pipeline::batch_report r = jobs == 1 ? serial : synthesize_batch(jobs);
        char rate[32];
        char speedup[32];
        std::snprintf(rate, sizeof rate, "%.1f", r.nets_per_second());
        std::snprintf(speedup, sizeof speedup, "%.2f",
                      base > 0 ? r.nets_per_second() / base : 0.0);
        benchutil::row("nets/sec jobs=" + std::to_string(jobs), rate);
        benchutil::row("speedup jobs=" + std::to_string(jobs), speedup);
    }
}

void bm_batch_throughput(benchmark::State& state)
{
    const auto jobs = static_cast<std::size_t>(state.range(0));
    std::size_t nets = 0;
    for (auto _ : state) {
        const pipeline::batch_report r = synthesize_batch(jobs);
        nets += r.results.size();
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(nets));
    state.counters["nets_per_sec"] =
        benchmark::Counter(static_cast<double>(nets), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_batch_throughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_generator(benchmark::State& state)
{
    pipeline::net_generator generator(kSeed);
    for (auto _ : state) {
        benchmark::DoNotOptimize(generator.next());
    }
}
BENCHMARK(bm_generator);

} // namespace

FCQSS_BENCH_MAIN(report)
