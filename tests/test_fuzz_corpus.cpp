// Corpus replay: every `.pn` net under tests/corpus/ runs through the full
// differential verdict matrix (pipeline/fuzz.hpp) and must come back clean —
// agreeing sequential/parallel state spaces per reduction kind, agreeing
// deadlock verdicts, and a rejection-or-success synthesis pass.  The corpus
// holds one base net and two mutants per generator family plus hand-shaped
// edge cases; any fuzz finding gets minimized into a new file here, turning
// a one-off disagreement into a standing regression test.  The replay is
// deterministic and fast, so it runs in every ctest invocation, including
// the sanitizer and TSan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/fuzz.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"

#ifndef FCQSS_CORPUS_DIR
#error "FCQSS_CORPUS_DIR must point at tests/corpus (set by CMakeLists.txt)"
#endif

namespace fcqss::pipeline {
namespace {

std::vector<std::filesystem::path> corpus_files()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(FCQSS_CORPUS_DIR)) {
        if (entry.path().extension() == ".pn") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string slurp(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(fuzz_corpus, is_not_empty)
{
    EXPECT_GE(corpus_files().size(), 20u);
}

TEST(fuzz_corpus, files_are_canonical)
{
    // Reproducers must stay in the writer's canonical form, so a future
    // shrink producing the same net produces the same bytes (dedup by diff).
    for (const std::filesystem::path& path : corpus_files()) {
        const std::string text = slurp(path);
        const pn::petri_net net = pnio::parse_net(text);
        EXPECT_EQ(pnio::write_net(net), text) << path.filename();
    }
}

TEST(fuzz_corpus, every_net_passes_the_verdict_matrix)
{
    fuzz_options options; // the harness defaults: tight budgets, synthesis on
    for (const std::filesystem::path& path : corpus_files()) {
        const pn::petri_net net = pnio::parse_net(slurp(path));
        const std::string reason = check_verdict_matrix(net, options);
        EXPECT_TRUE(reason.empty()) << path.filename() << ": " << reason;
    }
}

TEST(fuzz_corpus, verdicts_survive_a_mutation_round)
{
    // One extra mutation layer over each corpus net keeps the replay probing
    // slightly beyond the stored files while staying deterministic.
    fuzz_options options;
    for (const std::filesystem::path& path : corpus_files()) {
        const pn::petri_net net = pnio::parse_net(slurp(path));
        const pn::mutation_result mutant = pn::mutate(net, 5, {.count = 3});
        const std::string reason = check_verdict_matrix(mutant.net, options);
        EXPECT_TRUE(reason.empty()) << path.filename() << ": " << reason;
    }
}

} // namespace
} // namespace fcqss::pipeline
