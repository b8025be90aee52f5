// Tests for the flag table (harness/flags.hpp): the parser and usage
// printer every CLI shares, the inverse duration grammar, the scenario
// rows' formatters, and the fuzzer's reproducer line — every committed
// tests/fuzz_corpus entry must parse through the table and re-emit byte
// for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/flags.hpp"

namespace turq::harness {
namespace {

/// Splits a shell command line into words, honouring plain single quotes
/// (all the quoting the corpus lines use).
std::vector<std::string> shell_words(const std::string& line) {
  std::vector<std::string> words;
  std::string word;
  bool quoted = false;
  bool in_word = false;
  for (const char ch : line) {
    if (ch == '\'') {
      quoted = !quoted;
      in_word = true;
    } else if (ch == ' ' && !quoted) {
      if (in_word) words.push_back(word);
      word.clear();
      in_word = false;
    } else {
      word += ch;
      in_word = true;
    }
  }
  if (in_word) words.push_back(word);
  return words;
}

/// Runs `line` ("program --flag value ...") through `flags`.
void parse_line(const std::string& line, const Flags& flags) {
  const std::vector<std::string> words = shell_words(line);
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  parse_flags(static_cast<int>(argv.size()), argv.data(), flags);
}

TEST(Flags, FormatDurationInvertsParseDuration) {
  EXPECT_EQ(format_duration(120 * kSecond, kSecond), "120");
  EXPECT_EQ(format_duration(900 * kMillisecond, kSecond), "900ms");
  EXPECT_EQ(format_duration(1500 * kMillisecond, kSecond), "1500ms");
  EXPECT_EQ(format_duration(10 * kMillisecond, kMillisecond), "10");
  EXPECT_EQ(format_duration(250 * kMicrosecond, kMillisecond), "250us");
  EXPECT_EQ(format_duration(2 * 60 * kSecond, kMillisecond), "120000");
  EXPECT_EQ(format_duration(0, kSecond), "0");
  for (const SimDuration d :
       {SimDuration{0}, SimDuration{7}, 900 * kMillisecond, 3601 * kSecond,
        kSecond + 1, 90 * 60 * kSecond}) {
    for (const SimDuration unit : {kMillisecond, kSecond}) {
      EXPECT_EQ(parse_duration(format_duration(d, unit), unit), d)
          << format_duration(d, unit);
    }
  }
}

TEST(Flags, ParseRunsEachRowInOrder) {
  bool verbose = false;
  bool pool = true;
  std::uint32_t n = 0;
  SimDuration tick = 0;
  std::vector<std::uint32_t> sizes{1};
  std::vector<std::string> files;
  const Flags flags = {
      flag("--verbose", "", verbose),
      flag("--no-pool", "", pool, false),
      flag("--n", "<N>", "", n),
      flag("--tick", "<dur>", "", tick, kMillisecond),
      flag("--sizes", "<list>", "", sizes),
      {"--files", "F...", "",
       [&](std::string_view v) { files.emplace_back(v); },
       {},
       /*rest=*/true},
  };
  parse_line("prog --n 4 --verbose --tick 250us --sizes 4,10 --n 7 --no-pool "
             "--files a --n b",
             flags);
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(pool);
  EXPECT_EQ(n, 7u);  // the last use wins
  EXPECT_EQ(tick, 250 * kMicrosecond);
  EXPECT_EQ(sizes, (std::vector<std::uint32_t>{4, 10}));
  EXPECT_EQ(files, (std::vector<std::string>{"a", "--n", "b"}));
}

TEST(Flags, BadUsageExits2WithUsage) {
  std::uint32_t n = 0;
  const Flags flags = {flag("--n", "<N>", "group size", n)};
  EXPECT_EXIT(parse_line("prog --m 4", flags), testing::ExitedWithCode(2),
              "usage: prog \\[options\\]\n  --n <N> +group size");
  EXPECT_EXIT(parse_line("prog --help", flags), testing::ExitedWithCode(2),
              "usage:");
  EXPECT_EXIT(parse_line("prog --n", flags), testing::ExitedWithCode(2),
              "usage:");
  EXPECT_EXIT(parse_line("prog --n 4x", flags), testing::ExitedWithCode(2),
              "--n: bad value '4x'");
}

TEST(ScenarioFlags, HelpNamesTheBoundDefault) {
  ScenarioConfig cfg;
  cfg.repetitions = 20;
  const Flags flags = scenario_flags(cfg, {"--reps", "--timeout", "--attack"});
  ASSERT_EQ(flags.size(), 3u);
  EXPECT_EQ(flags[0].help, "repetitions (default 20)");
  EXPECT_NE(flags[1].help.find("(default 120)"), std::string::npos);
  // A row left out at its default states that default in its own words.
  EXPECT_EQ(flags[2].help.find("(default value-inversion)"), std::string::npos);
  EXPECT_THROW((void)scenario_flags(cfg, {"--no-such-flag"}), std::logic_error);
}

TEST(ScenarioFlags, EveryRowRoundTrips) {
  // Every row set, so every formatter has something to say.
  ScenarioConfig cfg;
  Flags rows = scenario_flags(cfg);
  parse_line("turquois_sim --protocol turquois --n 13 --dist divergent "
             "--faults 'ambient;jam@250-400' --attack decided-coin "
             "--topology 'grid(r=150)' "
             "--radius 120.5 --area 250 --mobility waypoint --no-relay "
             "--reps 3 --loss 0.05 --no-bursts --tick 2.5 "
             "--broadcast-rate 11e6 --timeout 1.5 --seed 99 --jobs 0 "
             "--no-exchange-pool --service --pipeline-depth 16 --batch 4 "
             "--arrival bursty --offered-load 1234.5 --requests 77 "
             "--mux-window 300us --no-audit --audit-phase-bound 9 "
             "--trace-sim-events",
             rows);
  const std::string line = format_command("turquois_sim", rows);

  ScenarioConfig again;
  Flags rows_again = scenario_flags(again);
  parse_line(line, rows_again);
  EXPECT_EQ(format_command("turquois_sim", rows_again), line);
  for (const Flag& row : rows) {
    EXPECT_TRUE(row.format().has_value()) << row.name;
  }
  EXPECT_EQ(again.tick_interval, 2500 * kMicrosecond);
  EXPECT_EQ(again.run_timeout, 1500 * kMillisecond);
  EXPECT_EQ(again.service.mux_window, 300 * kMicrosecond);
  EXPECT_EQ(again.medium.broadcast_rate_bps, 11e6);
  EXPECT_FALSE(again.relay_enabled);
}

std::string repro_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') last = line;
  }
  return last;
}

TEST(FuzzCorpus, ReproducersRoundTripByteForByte) {
  const std::filesystem::path corpus = FUZZ_CORPUS_DIR;
  std::size_t checked = 0;
  for (const auto& dir : {corpus, corpus / "stalls"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".repro") continue;
      const std::string line = repro_line(entry.path());
      ScenarioConfig cfg;
      parse_line(line, reproducer_flags(cfg));
      EXPECT_EQ(sim_command(cfg), line) << entry.path();
      ++checked;
    }
  }
  EXPECT_GE(checked, 10u);
}

TEST(FuzzCorpus, SubSecondTimeoutRoundTrips) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kBracha;
  cfg.n = 10;
  cfg.plan = faultplan::plan_from_name("sigma", nullptr);
  cfg.repetitions = 1;
  cfg.run_timeout = 900 * kMillisecond;
  const std::string line = sim_command(cfg);
  EXPECT_EQ(line,
            "turquois_sim --protocol bracha --n 10 --dist unanimous "
            "--faults sigma --seed 1 --reps 1 --timeout 900ms");
  ScenarioConfig replay;
  parse_line(line, reproducer_flags(replay));
  EXPECT_EQ(replay.run_timeout, 900 * kMillisecond);
  EXPECT_EQ(sim_command(replay), line);
}

}  // namespace
}  // namespace turq::harness
