// Unit tests: the experiment registry, runner, and the JSON reporting path
// (links qols_bench_core — the same objects behind qols_bench).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "registry.hpp"
#include "reporter.hpp"

namespace {

using namespace qols::bench;

// Ids run e1..e26 with no e25: that experiment was retired, and the ids
// after it keep their numbers.
TEST(Registry, AllExperimentsRegisteredWithUniqueIds) {
  const auto& all = Registry::global().experiments();
  ASSERT_EQ(all.size(), 25u);
  std::set<std::string> ids;
  for (const auto& e : all) {
    EXPECT_FALSE(e.info.title.empty());
    EXPECT_FALSE(e.info.claim.empty());
    EXPECT_FALSE(e.info.tags.empty());
    ids.insert(e.info.id);
  }
  EXPECT_EQ(ids.size(), 25u);
  for (int i = 1; i <= 26; ++i) {
    std::string id = "e";
    id += std::to_string(i);
    if (i == 25) {
      EXPECT_EQ(Registry::global().find(id), nullptr);
    } else {
      EXPECT_NE(Registry::global().find(id), nullptr);
    }
  }
}

TEST(Registry, FindIsExact) {
  EXPECT_EQ(Registry::global().find("e"), nullptr);
  EXPECT_EQ(Registry::global().find("e99"), nullptr);
  ASSERT_NE(Registry::global().find("e7"), nullptr);
  EXPECT_EQ(Registry::global().find("e7")->info.id, "e7");
}

TEST(Registry, MatchFiltersOverIdTitleAndTags) {
  const auto& reg = Registry::global();
  EXPECT_EQ(reg.match("").size(), 25u);  // empty filter selects everything
  // An exact id match wins outright: "e1" is only e1, never e10..e18.
  const auto exact = reg.match("e1");
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0]->info.id, "e1");
  EXPECT_EQ(reg.match("E1").size(), 1u);  // exact match is case-insensitive
  // Non-id substrings still fan out.
  EXPECT_EQ(reg.match("e").size(), 25u);
  // Tag match, case-insensitive.
  const auto ablations = reg.match("ABLATION");
  EXPECT_GE(ablations.size(), 4u);
  // Title match.
  EXPECT_FALSE(reg.match("separation").empty());
  EXPECT_TRUE(reg.match("no-such-thing").empty());
}

TEST(RunConfig, DefaultsAndOverrides) {
  RunConfig cfg;
  EXPECT_EQ(cfg.max_k_or(7), 7u);
  EXPECT_EQ(cfg.trials_or(100), 100);
  cfg.max_k = 3;
  cfg.trials = 5;
  EXPECT_EQ(cfg.max_k_or(7), 3u);
  EXPECT_EQ(cfg.trials_or(100), 5);
}

TEST(Runner, RunsSelectionAndAggregatesStatus) {
  Registry reg;
  reg.add({.id = "ok", .title = "t", .claim = "c", .tags = {"x"}},
          [](Reporter&, const RunConfig&) { return 0; });
  reg.add({.id = "bad", .title = "t", .claim = "c", .tags = {"x"}},
          [](Reporter&, const RunConfig&) { return 1; });
  Reporter null_reporter;
  EXPECT_EQ(run_experiments({reg.find("ok")}, null_reporter, {}), 0);
  EXPECT_EQ(run_experiments({reg.find("ok"), reg.find("bad")}, null_reporter,
                            {}),
            1);
}

TEST(Runner, E18ProducesConsoleTablesAndJsonMetrics) {
  const Experiment* e18 = Registry::global().find("e18");
  ASSERT_NE(e18, nullptr);

  std::ostringstream human;
  ConsoleReporter console(human);
  JsonReporter json;
  MultiReporter rep({&console, &json});

  RunConfig cfg;
  cfg.max_k = 3;  // e18 reads max_k as its m sweep cap — keeps this fast
  EXPECT_EQ(run_experiments({e18}, rep, cfg), 0);

  // Human sink: header, a table, the closing status line.
  const std::string text = human.str();
  EXPECT_NE(text.find("=== e18"), std::string::npos);
  EXPECT_NE(text.find("D1(DISJ)"), std::string::npos);
  EXPECT_NE(text.find("[ok]"), std::string::npos);

  // JSON sink: schema, the experiment record, per-row metrics, and the
  // process-wide telemetry block appended to every document.
  const std::string doc = json.document().dump(2);
  EXPECT_NE(doc.find("\"schema\": \"qols-bench/4\""), std::string::npos);
  EXPECT_NE(doc.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(doc.find("\"enabled\""), std::string::npos);
  EXPECT_NE(doc.find("\"id\": \"e18\""), std::string::npos);
  EXPECT_NE(doc.find("\"status\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"m=3\""), std::string::npos);
  EXPECT_NE(doc.find("\"d1_disj\""), std::string::npos);
}

TEST(Reporter, MetricFromResultCarriesRateCiAndSpace) {
  qols::core::ExperimentResult r;
  r.trials = 100;
  r.accepts = 75;
  r.space = {.classical_bits = 12, .qubits = 8};
  const auto m = metric_from_result("row", 3, r, 0.5);
  EXPECT_EQ(m.label, "row");
  EXPECT_EQ(*m.k, 3);
  EXPECT_EQ(*m.trials, 100u);
  EXPECT_EQ(*m.accepts, 75u);
  EXPECT_DOUBLE_EQ(*m.rate, 0.75);
  EXPECT_LT(*m.ci_lo, 0.75);
  EXPECT_GT(*m.ci_hi, 0.75);
  EXPECT_EQ(*m.classical_bits, 12u);
  EXPECT_EQ(*m.qubits, 8u);
  EXPECT_DOUBLE_EQ(*m.wall_seconds, 0.5);
  // No not-simulated trials: the extra must stay absent, not read 0.
  EXPECT_TRUE(m.extra.empty());
}

TEST(Reporter, MetricFromResultSurfacesNotSimulatedTrials) {
  qols::core::ExperimentResult r;
  r.trials = 10;
  r.accepts = 0;
  r.not_simulated = 10;
  const auto m = metric_from_result("row", 14, r, 0.1);
  ASSERT_EQ(m.extra.size(), 1u);
  EXPECT_EQ(m.extra[0].first, "not_simulated");
  EXPECT_DOUBLE_EQ(m.extra[0].second, 10.0);
}

TEST(RunConfig, DenseMaxKClampsToTheDenseEnvelope) {
  RunConfig cfg;
  EXPECT_EQ(cfg.dense_max_k_or(7), 7u);
  cfg.max_k = 16;  // e19 territory: dense-era experiments must not follow
  EXPECT_EQ(cfg.max_k_or(7), 16u);
  EXPECT_EQ(cfg.dense_max_k_or(7), 10u);
}

}  // namespace
