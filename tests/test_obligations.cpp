// Tests for the Table I obligation harness: the full suite discharges on
// HERMES instances and its rows mirror the paper's table.
#include <gtest/gtest.h>

#include <string>

#include "core/obligations.hpp"
#include "deadlock/constraints.hpp"
#include "verify/pipeline.hpp"

namespace genoc {
namespace {

TEST(Obligations, FullSuiteDischargesOn3x3) {
  const HermesInstance hermes(3, 3, 2);
  ObligationOptions options;
  options.workloads = 3;
  options.messages_per_workload = 12;
  const ObligationSuite suite = run_hermes_obligations(hermes, options);
  ASSERT_EQ(suite.rows.size(), 9u);
  for (const ObligationRow& row : suite.rows) {
    EXPECT_TRUE(row.satisfied) << row.label << ": " << row.note;
    EXPECT_GT(row.checks, 0u) << row.label;
  }
  EXPECT_TRUE(suite.all_satisfied());
}

TEST(Obligations, RowLabelsMatchThePaperTable) {
  const HermesInstance hermes(2, 2, 1);
  ObligationOptions options;
  options.workloads = 1;
  options.messages_per_workload = 4;
  const ObligationSuite suite = run_hermes_obligations(hermes, options);
  const auto& paper = paper_table1();
  ASSERT_EQ(paper.size(), suite.rows.size() + 1);  // + "Overall"
  for (std::size_t i = 0; i < suite.rows.size(); ++i) {
    EXPECT_EQ(suite.rows[i].label, paper[i].label);
  }
  EXPECT_EQ(paper.back().label, "Overall");
  EXPECT_EQ(paper.back().lines, 13261);
  EXPECT_EQ(paper.back().theorems, 1008);
  EXPECT_EQ(paper.back().human_days, 20);
}

TEST(Obligations, OverallSumsTheColumns) {
  const HermesInstance hermes(2, 2, 1);
  ObligationOptions options;
  options.workloads = 1;
  options.messages_per_workload = 4;
  const ObligationSuite suite = run_hermes_obligations(hermes, options);
  const ObligationRow overall = suite.overall();
  std::uint64_t checks = 0;
  for (const ObligationRow& row : suite.rows) {
    checks += row.checks;
  }
  EXPECT_EQ(overall.checks, checks);
  EXPECT_TRUE(overall.satisfied);
  EXPECT_EQ(overall.label, "Overall");
}

TEST(Obligations, C1AndC2DominateTheCheckCounts) {
  // The paper notes (C-1)/(C-2) "basically consist of many case
  // distinctions" — the shape preserved here: those rows perform the most
  // elementary checks among the constraint rows.
  const HermesInstance hermes(4, 4, 2);
  ObligationOptions options;
  options.workloads = 1;
  options.messages_per_workload = 8;
  const ObligationSuite suite = run_hermes_obligations(hermes, options);
  auto row = [&](const std::string& label) -> const ObligationRow& {
    for (const ObligationRow& r : suite.rows) {
      if (r.label == label) {
        return r;
      }
    }
    ADD_FAILURE() << "missing row " << label;
    static ObligationRow dummy;
    return dummy;
  };
  // (C-2) is the heavyweight case-split row (51 CPU minutes in the paper,
  // the largest constraint row) — it dominates both other constraints.
  EXPECT_GT(row("(C-2)xy").checks, row("(C-3)xy").checks);
  EXPECT_GT(row("(C-2)xy").checks, row("(C-1)xy").checks);
}

TEST(Obligations, SuiteScalesAcrossMeshSizes) {
  for (const auto& [w, h] : {std::pair{2, 3}, std::pair{4, 2}, std::pair{2, 2},
                             std::pair{1, 8}, std::pair{8, 1}}) {
    const HermesInstance hermes(w, h, 2);
    ObligationOptions options;
    options.workloads = 1;
    options.messages_per_workload = 6;
    const ObligationSuite suite = run_hermes_obligations(hermes, options);
    EXPECT_TRUE(suite.all_satisfied()) << w << "x" << h;
    // Fully adaptive routing on a one-row or one-column mesh has no cycle,
    // so the Theorem-1 round trip is vacuous there and runs everywhere else.
    const ObligationRow& dead_evac = suite.rows.back();
    ASSERT_EQ(dead_evac.label, "Dead/EvacThm");
    const bool line = w == 1 || h == 1;
    EXPECT_EQ(dead_evac.note.find("vacuous") != std::string::npos, line)
        << w << "x" << h << ": " << dead_evac.note;
  }
}

TEST(Obligations, DecidesOnOnePipelineContext) {
  const HermesInstance hermes(3, 3, 2);
  ObligationOptions options;
  options.workloads = 1;
  options.messages_per_workload = 6;
  const ObligationSuite suite = run_hermes_obligations(hermes, options);
  // One decision per suite run: the graph, its acyclicity verdict and the
  // (C-1)/(C-2) reports are each computed once.
  EXPECT_EQ(suite.cache.dep_graph.misses, 1u);
  EXPECT_EQ(suite.cache.acyclicity.misses, 1u);
  EXPECT_EQ(suite.cache.constraints.misses, 1u);

  // The standard pipeline with (C-1)/(C-2) on, over its own context of the
  // same spec: the suite's rows carry its discharge.
  InstanceSpec spec;
  spec.width = 3;
  spec.height = 3;
  spec.routing = "xy";
  AnalysisArtifacts context(spec);
  InstanceVerifyOptions verify;
  verify.check_constraints = true;
  const VerifyReport report =
      VerifyPipeline::standard().run(spec, context, verify);
  ASSERT_TRUE(report.verdict.deadlock_free);
  // The rows read what the pipeline left in the context instead of
  // deciding again: the graph in (C-2), (C-3) and Generic Defs, the
  // verdict in (C-3), the reports in (C-1) and (C-2).
  EXPECT_EQ(suite.cache.dep_graph.hits, report.cache.dep_graph.hits + 3);
  EXPECT_EQ(suite.cache.acyclicity.hits, report.cache.acyclicity.hits + 1);
  EXPECT_EQ(suite.cache.constraints.hits, report.cache.constraints.hits + 2);

  std::uint64_t c1_checks = 0;
  std::uint64_t c2_checks = 0;
  for (const Diagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.code != "constraints-discharged") {
      continue;
    }
    for (const auto& [key, value] : diagnostic.witness) {
      if (key == "c1_checks") {
        c1_checks = std::stoull(value);
      } else if (key == "c2_checks") {
        c2_checks = std::stoull(value);
      }
    }
  }
  ASSERT_GT(c1_checks, 0u);
  ASSERT_GT(c2_checks, 0u);
  const ConstraintReport find_dest = check_c2_xy_closed_form(
      context.routing(), context.dep_graph(false, nullptr));
  ASSERT_EQ(suite.rows.size(), 9u);
  EXPECT_EQ(suite.rows[3].label, "(C-1)xy");
  EXPECT_EQ(suite.rows[3].checks, c1_checks);
  EXPECT_EQ(suite.rows[4].label, "(C-2)xy");
  EXPECT_EQ(suite.rows[4].checks, c2_checks + find_dest.checks);
}

}  // namespace
}  // namespace genoc
