#include "instance/batch_runner.hpp"

#include <memory>
#include <utility>

#include "obs/trace.hpp"
#include "verify/artifacts.hpp"

namespace genoc {

std::vector<VerifyReport> verify_instance_reports(
    const std::vector<InstanceSpec>& specs, const VerifyPipeline& pipeline,
    BatchRunner* runner, const InstanceVerifyOptions& base) {
  std::vector<VerifyReport> reports(specs.size());
  InstanceVerifyOptions options = base;
  options.runner = runner;
  // Batch-wide artifact sharing: default to a store scoped to this sweep so
  // duplicate topology x routing x escape prefixes are analyzed once even
  // when the caller did not bring a store of its own.
  ArtifactStore local_store;
  ArtifactStore* store =
      base.artifacts != nullptr ? base.artifacts : &local_store;
  options.artifacts = store;

  const auto verify_one = [&](std::size_t i) {
    // Covers context acquisition too, so a trace shows the full cost of
    // the row, not just the pipeline stages inside it.
    obs::TraceSpan span("verify_instance");
    if (span.active()) {
      span.set_detail(specs[i].name);
    }
    const std::shared_ptr<AnalysisArtifacts> artifacts =
        store->acquire(specs[i]);
    reports[i] = pipeline.run(specs[i], *artifacts, options);
  };

  if (runner == nullptr) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      verify_one(i);
    }
    return reports;
  }
  runner->parallel_for(specs.size(), 1,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           verify_one(i);
                         }
                       });
  return reports;
}

std::vector<InstanceVerdict> verify_instances(
    const std::vector<InstanceSpec>& specs, BatchRunner* runner,
    const InstanceVerifyOptions& base) {
  std::vector<VerifyReport> reports =
      verify_instance_reports(specs, VerifyPipeline::standard(), runner, base);
  std::vector<InstanceVerdict> verdicts;
  verdicts.reserve(reports.size());
  for (VerifyReport& report : reports) {
    verdicts.push_back(std::move(report.verdict));
  }
  return verdicts;
}

}  // namespace genoc
