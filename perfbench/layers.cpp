// perfbench_layers: the benchmark's in-process driver. It makes the calls
// the genoc CLI makes for one workload, in the CLI's order and on fresh
// state, and times each layer from outside by wrapping that layer's public
// function in a span of its own. The program's own trace recorder stays
// off. One process runs the path once; perfbench/run.py starts a fresh
// process per repetition, so every repetition pays the cold costs a user
// pays.
//
// Modes:
//   setup  times the cold set-up alone (spec resolution and the analysis
//          context; campaigns add the fault enumeration, the pool and the
//          base dependency graph) and prints {"setup_s": ...}.
//   trace  runs the whole path with spans on and prints the layer totals,
//          counter deltas and verdicts as one JSON line; --spans writes the
//          span records (every root span, plus the per-variant spans of a
//          --seed-picked sample of campaign variants).
//   plain  runs the same path with spans off and prints its total; the
//          gap to `trace` is the tracing overhead.
//
// Usage:
//   perfbench_layers --mode setup|trace|plain --kind verify|campaign
//                    --instance NAME|SPEC --threads N [--seed N]
//                    [--spans FILE]
// Campaigns always use the single-fault plan, as both campaign workloads do.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "campaign/fault_model.hpp"
#include "cli/json_writer.hpp"
#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using genoc::AnalysisArtifacts;
using genoc::cli::JsonObject;

constexpr std::uint32_t kNoParent = 0;
/// Campaign variants whose fine spans go to the span file, per repetition.
constexpr std::size_t kSampledVariants = 64;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Small dense index of the calling thread, for the span file's tid field.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

struct SpanRecord {
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t tid;
  std::int64_t begin_ns;
  std::int64_t end_ns;
  std::int64_t variant;  // campaign variant index, -1 elsewhere
};

/// In-memory span store, written out once the path is done. Disabled, it
/// records nothing and a Span costs one branch.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled), epoch_ns_(now_ns()) {}

  bool enabled() const { return enabled_; }
  std::int64_t epoch_ns() const { return epoch_ns_; }
  std::uint32_t next_id() { return next_id_.fetch_add(1); }

  void add(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }

  /// The records, once every Span has closed.
  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  const bool enabled_;
  const std::int64_t epoch_ns_;
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span: start at construction, recorded at destruction.
class Span {
 public:
  Span(Recorder& recorder, const char* name, std::uint32_t parent,
       std::int64_t variant = -1)
      : recorder_(recorder) {
    if (!recorder_.enabled()) {
      return;
    }
    record_ = {name,     recorder_.next_id(), parent, thread_index(),
               now_ns(), 0,                   variant};
  }
  ~Span() {
    if (recorder_.enabled()) {
      record_.end_ns = now_ns();
      recorder_.add(record_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return record_.id; }

 private:
  Recorder& recorder_;
  SpanRecord record_{};
};

struct Args {
  std::string mode;
  std::string kind;
  std::string instance;
  std::size_t threads = 0;
  std::uint64_t seed = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_layers: " << message << "\n"
            << "usage: perfbench_layers --mode setup|trace|plain "
               "--kind verify|campaign --instance NAME|SPEC --threads N "
               "[--seed N] [--spans FILE]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--kind") {
      args.kind = value;
    } else if (flag == "--instance") {
      args.instance = value;
    } else if (flag == "--threads") {
      args.threads = parse_uint(flag, value);
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.mode != "setup" && args.mode != "trace" && args.mode != "plain") {
    usage("--mode must be setup, trace or plain");
  }
  if (args.kind != "verify" && args.kind != "campaign") {
    usage("--kind must be verify or campaign");
  }
  if (args.instance.empty()) {
    usage("--instance is required");
  }
  // The benchmark pins every pool; 0 (hardware concurrency) would make the
  // figures depend on the host.
  if (args.threads == 0 || args.threads > 256) {
    usage("--threads must be in [1, 256]");
  }
  return args;
}

/// splitmix64: the seeded key that picks the sampled variants.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Indices of the \p count variants with the smallest seeded keys.
std::vector<bool> sample_variants(std::size_t total, std::size_t count,
                                  std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keys(total);
  for (std::size_t i = 0; i < total; ++i) {
    keys[i] = {mix(seed ^ mix(i)), i};
  }
  count = std::min(count, total);
  std::partial_sort(keys.begin(), keys.begin() + static_cast<long>(count),
                    keys.end());
  std::vector<bool> picked(total, false);
  for (std::size_t i = 0; i < count; ++i) {
    picked[keys[i].second] = true;
  }
  return picked;
}

/// Counter deltas over the path, from MetricsRegistry snapshots.
struct CounterDelta {
  genoc::obs::MetricsSnapshot before;
  genoc::obs::MetricsSnapshot after;

  std::uint64_t of(const std::string& name) const {
    return after.counter_value(name) - before.counter_value(name);
  }
  std::uint64_t worker_busy_ns() const {
    std::uint64_t total = 0;
    for (const auto& [name, value] : after.counters) {
      if (name.rfind("threadpool.worker", 0) == 0 &&
          name.size() > 8 && name.compare(name.size() - 8, 8, ".busy_ns") == 0) {
        total += value - before.counter_value(name);
      }
    }
    return total;
  }
};

/// What one path run produced, beyond its spans.
struct PathResult {
  double path_s = 0.0;
  std::map<std::string, double> cpu_s;        // per-layer process CPU
  std::map<std::string, std::uint64_t> counts;
  std::size_t threads = 1;
  std::string verdict_json;                   // checked by run.py's oracle
  std::vector<double> variant_ms;             // campaign per-variant totals
};

genoc::Analyzer named_analyzer(const std::vector<std::string>& names) {
  std::string error;
  std::optional<genoc::Analyzer> built =
      genoc::Analyzer::from_rule_names(names, &error);
  if (!built) {
    std::cerr << "perfbench_layers: " << error << "\n";
    std::exit(1);
  }
  return *built;
}

genoc::InstanceSpec resolve(const std::string& text) {
  std::string error;
  std::optional<genoc::InstanceSpec> spec =
      genoc::InstanceRegistry::global().resolve(text, &error);
  if (!spec) {
    std::cerr << "perfbench_layers: " << error << "\n";
    std::exit(2);
  }
  return *spec;
}

/// Every single-link-failure variant of \p base (`--faults single`).
std::vector<genoc::InstanceSpec> enumerate_variants(
    const genoc::InstanceSpec& base) {
  return genoc::FaultModel(base).variants(genoc::FaultPlan{});
}

/// Times \p body's process CPU into result.cpu_s[name].
template <typename Body>
void with_cpu(PathResult& result, const std::string& name, Body&& body) {
  const double before = genoc::process_cpu_ms();
  body();
  result.cpu_s[name] += (genoc::process_cpu_ms() - before) / 1e3;
}

/// `genoc verify --instance X --threads N`: resolve, the analyzer
/// pre-screen over the store's context, then the standard pipeline, whose
/// artifact computes are called one by one first so each gets its span.
PathResult run_verify(const Args& args, Recorder& rec) {
  PathResult result;
  const genoc::InstanceSpec spec = [&] {
    Span span(rec, "instance.resolve", kNoParent);
    return resolve(args.instance);
  }();
  genoc::ArtifactStore store;
  std::shared_ptr<AnalysisArtifacts> artifacts;
  {
    Span span(rec, "instance.context", kNoParent);
    artifacts = store.acquire(spec);
  }
  bool prescreen_clean = false;
  {
    Span span(rec, "analyze.prescreen", kNoParent);
    prescreen_clean = genoc::Analyzer::cheap().run(spec, *artifacts).clean();
  }
  std::optional<genoc::BatchRunner> pool;
  {
    Span span(rec, "pool.create", kNoParent);
    pool.emplace(args.threads);
  }
  result.threads = pool->thread_count();
  std::optional<genoc::NetworkInstance> instance;
  {
    Span span(rec, "instance.network_instance", kNoParent);
    instance.emplace(spec);
  }
  const genoc::PortDepGraph* dep = nullptr;
  {
    Span span(rec, "deadlock.depgraph", kNoParent);
    with_cpu(result, "deadlock.depgraph",
             [&] { dep = &artifacts->dep_graph(false, &*pool); });
  }
  bool acyclic = false;
  {
    Span span(rec, "graph.acyclicity", kNoParent);
    with_cpu(result, "graph.acyclicity", [&] {
      acyclic = artifacts->acyclicity(false, &*pool).acyclic;
    });
  }
  std::uint64_t escape_states = 0;
  if (!acyclic && artifacts->escape_routing() != nullptr) {
    Span span(rec, "deadlock.escape", kNoParent);
    with_cpu(result, "deadlock.escape", [&] {
      escape_states = artifacts->escape_analysis(&*pool).states_checked;
    });
  }
  genoc::VerifyReport report;
  {
    Span span(rec, "verify.pipeline", kNoParent);
    genoc::InstanceVerifyOptions options;
    options.runner = &*pool;
    report = genoc::VerifyPipeline::standard().run(*instance, *artifacts,
                                                   options);
  }
  result.counts["deadlock.depgraph_edges"] = dep->graph.edge_count();
  result.counts["deadlock.escape_states"] = escape_states;
  result.counts["campaign.variants"] = 0;
  result.counts["campaign.screened"] = prescreen_clean ? 0 : 1;

  const genoc::InstanceVerdict& verdict = report.verdict;
  result.verdict_json =
      JsonObject()
          .add("instance", verdict.instance)
          .add("nodes", static_cast<std::uint64_t>(verdict.nodes))
          .add("ports", static_cast<std::uint64_t>(verdict.ports))
          .add("dep_acyclic", acyclic)
          .add("deadlock_free", verdict.deadlock_free)
          .add("method", verdict.method)
          .add("prescreen_clean", prescreen_clean)
          .to_string();
  return result;
}

/// The per-rule breakdown of the pre-screen: each cheap rule alone, over a
/// fresh context of the same spec. Runs after the path, so it is not part
/// of path_s.
void run_rule_breakdown(const Args& args, Recorder& rec) {
  const genoc::InstanceSpec spec = resolve(args.instance);
  genoc::ArtifactStore store;
  const std::shared_ptr<AnalysisArtifacts> artifacts = store.acquire(spec);
  // Span records hold name pointers, so the names live until exit.
  static const std::vector<std::string> span_names = [] {
    std::vector<std::string> names;
    for (const std::string& rule : genoc::Analyzer::cheap_rule_names()) {
      names.push_back("analyze." + rule);
    }
    return names;
  }();
  Span root(rec, "breakdown.rules", kNoParent);
  const std::vector<std::string>& rules = genoc::Analyzer::cheap_rule_names();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const genoc::Analyzer analyzer = named_analyzer({rules[i]});
    Span span(rec, span_names[i].c_str(), root.id());
    analyzer.run(spec, *artifacts);
  }
}

/// One campaign variant's outcome, as the oracle checks it.
struct VariantOutcome {
  bool screened = false;
  bool deadlock_free = false;
  std::uint64_t escape_states = 0;
};

/// `genoc campaign --instance X --faults single --threads N`: enumerate, build
/// the base context and graph on the pool, then every variant on the pool,
/// as run_campaign does, with a span per layer call.
PathResult run_campaign_path(const Args& args, Recorder& rec) {
  PathResult result;
  const genoc::InstanceSpec base_spec = [&] {
    Span span(rec, "instance.resolve", kNoParent);
    return resolve(args.instance);
  }();
  std::vector<genoc::InstanceSpec> variants;
  {
    Span span(rec, "campaign.enumerate", kNoParent);
    variants = enumerate_variants(base_spec);
  }
  std::optional<genoc::BatchRunner> pool;
  {
    Span span(rec, "pool.create", kNoParent);
    pool.emplace(args.threads);
  }
  result.threads = pool->thread_count();
  genoc::ArtifactStore store;
  std::shared_ptr<AnalysisArtifacts> base;
  {
    Span span(rec, "campaign.base", kNoParent);
    {
      Span context(rec, "instance.context", span.id());
      base = store.acquire(base_spec);
    }
    Span depgraph(rec, "deadlock.depgraph", span.id());
    with_cpu(result, "deadlock.depgraph",
             [&] { base->dep_graph(false, &*pool); });
  }

  const genoc::Analyzer screen =
      named_analyzer({"spec_sanity", "fault_sanity", "connectivity"});
  const genoc::VerifyPipeline& pipeline = genoc::VerifyPipeline::standard();
  std::vector<VariantOutcome> outcomes(variants.size());
  result.variant_ms.assign(variants.size(), 0.0);
  {
    Span all(rec, "campaign.variants", kNoParent);
    const std::uint32_t parent = all.id();
    pool->parallel_for(
        variants.size(), pool->recommended_grain(variants.size()),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const auto v = static_cast<std::int64_t>(i);
            const genoc::Stopwatch timer;
            Span variant(rec, "campaign.variant", parent, v);
            const genoc::InstanceSpec& vspec = variants[i];
            VariantOutcome& out = outcomes[i];
            std::optional<AnalysisArtifacts> artifacts;
            {
              Span span(rec, "campaign.variant_context", variant.id(), v);
              artifacts.emplace(vspec, base);
            }
            {
              Span span(rec, "campaign.screen", variant.id(), v);
              const genoc::AnalyzeReport report =
                  screen.run(vspec, *artifacts, {});
              for (const genoc::Diagnostic& d : report.diagnostics) {
                out.screened =
                    out.screened || d.severity == genoc::Severity::kError;
              }
            }
            if (out.screened) {
              result.variant_ms[i] = timer.elapsed_ms();
              continue;
            }
            std::optional<genoc::NetworkInstance> instance;
            {
              Span span(rec, "instance.network_instance", variant.id(), v);
              instance.emplace(vspec);
            }
            {
              Span span(rec, "campaign.variant_depgraph", variant.id(), v);
              artifacts->dep_graph(false, nullptr);
            }
            bool acyclic = false;
            {
              Span span(rec, "campaign.variant_acyclicity", variant.id(), v);
              acyclic = artifacts->acyclicity(false, nullptr).acyclic;
            }
            if (!acyclic && artifacts->escape_routing() != nullptr) {
              Span span(rec, "campaign.variant_escape", variant.id(), v);
              out.escape_states =
                  artifacts->escape_analysis(nullptr).states_checked;
            }
            {
              Span span(rec, "verify.pipeline", variant.id(), v);
              out.deadlock_free =
                  pipeline.run(*instance, *artifacts, {}).verdict.deadlock_free;
            }
            result.variant_ms[i] = timer.elapsed_ms();
          }
        });
  }

  std::uint64_t screened = 0;
  std::uint64_t escape_states = 0;
  std::vector<std::string> free_faults;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const VariantOutcome& out = outcomes[i];
    screened += out.screened ? 1 : 0;
    escape_states += out.escape_states;
    if (!out.screened && out.deadlock_free) {
      free_faults.push_back(
          "\"" + genoc::cli::json_escape(
                     genoc::join_failed_links(variants[i].failed_links)) +
          "\"");
    }
  }
  result.counts["deadlock.depgraph_edges"] =
      base->dep_graph(false, nullptr).graph.edge_count();
  result.counts["deadlock.escape_states"] = escape_states;
  result.counts["campaign.variants"] = variants.size();
  result.counts["campaign.screened"] = screened;

  const std::uint64_t total = variants.size();
  const std::uint64_t free_count = free_faults.size();
  result.verdict_json =
      JsonObject()
          .add("variants", total)
          .add("screened", screened)
          .add("deadlock_free", free_count)
          .add("deadlocked", total - screened - free_count)
          .add_raw("deadlock_free_faults", genoc::cli::json_array(free_faults))
          .to_string();
  return result;
}

/// Layer totals: the sum of every span's duration, by span name.
std::map<std::string, double> layer_totals(const Recorder& rec) {
  std::map<std::string, double> totals;
  for (const SpanRecord& r : rec.records()) {
    totals[r.name] += static_cast<double>(r.end_ns - r.begin_ns) / 1e9;
  }
  return totals;
}

/// Σ of the root spans on the path (the breakdown root is not on it).
double path_roots_s(const Recorder& rec) {
  double total = 0.0;
  for (const SpanRecord& r : rec.records()) {
    if (r.parent == kNoParent && std::string(r.name).rfind("breakdown.", 0) != 0) {
      total += static_cast<double>(r.end_ns - r.begin_ns) / 1e9;
    }
  }
  return total;
}

/// The span file: the path total, the variant sample and the span records
/// (every span outside a campaign variant, and the sampled variants').
void write_spans(const std::string& path, const Recorder& rec,
                 double path_s, const std::vector<bool>& sampled) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench_layers: cannot write " << path << "\n";
    std::exit(1);
  }
  std::vector<std::string> spans;
  for (const SpanRecord& r : rec.records()) {
    if (r.variant >= 0 && !sampled[static_cast<std::size_t>(r.variant)]) {
      continue;
    }
    spans.push_back(JsonObject()
                        .add("name", r.name)
                        .add("id", static_cast<std::uint64_t>(r.id))
                        .add("parent", static_cast<std::uint64_t>(r.parent))
                        .add("tid", static_cast<std::uint64_t>(r.tid))
                        .add("begin_ns", r.begin_ns - rec.epoch_ns())
                        .add("end_ns", r.end_ns - rec.epoch_ns())
                        .add("variant", r.variant)
                        .to_string());
  }
  const auto sample_size = static_cast<std::uint64_t>(
      std::count(sampled.begin(), sampled.end(), true));
  out << JsonObject()
             .add("path_s", path_s)
             .add("variants", static_cast<std::uint64_t>(sampled.size()))
             .add("sampled_variants", sample_size)
             .add_raw("spans", genoc::cli::json_array(spans))
             .to_string();
  out.flush();
  if (!out) {
    std::cerr << "perfbench_layers: writing " << path << " failed\n";
    std::exit(1);
  }
}

/// {"name": value, ...} of a name-sorted map.
template <typename Map>
std::string json_map(const Map& values) {
  JsonObject object;
  for (const auto& [name, value] : values) {
    object.add(name, value);
  }
  return object.to_string();
}

int run_setup(const Args& args) {
  const genoc::Stopwatch timer;
  const genoc::InstanceSpec spec = resolve(args.instance);
  genoc::ArtifactStore store;
  if (args.kind == "verify") {
    store.acquire(spec);
  } else {
    const std::vector<genoc::InstanceSpec> variants =
        enumerate_variants(spec);
    genoc::BatchRunner pool(args.threads);
    store.acquire(spec)->dep_graph(false, &pool);
  }
  std::cout << JsonObject().add("setup_s", timer.elapsed_s()).to_string();
  return 0;
}

int run_path(const Args& args) {
  const bool traced = args.mode == "trace";
  Recorder rec(traced);
  genoc::obs::MetricsRegistry& metrics = genoc::obs::MetricsRegistry::global();
  CounterDelta delta;
  delta.before = metrics.snapshot();
  const genoc::Stopwatch timer;
  PathResult result = args.kind == "verify"
                          ? run_verify(args, rec)
                          : run_campaign_path(args, rec);
  result.path_s = timer.elapsed_s();
  delta.after = metrics.snapshot();

  if (traced && args.kind == "verify") {
    run_rule_breakdown(args, rec);
  }

  JsonObject out;
  out.add("mode", args.mode)
      .add("threads", static_cast<std::uint64_t>(result.threads))
      .add("path_s", result.path_s)
      .add_raw("verdict", result.verdict_json);
  if (traced) {
    result.counts["pool.parallel_for_calls"] =
        delta.of("threadpool.parallel_for.calls");
    result.counts["routing.closure_rows"] = delta.of("closure.rows_built");
    result.counts["campaign.delta_builds"] =
        delta.of("artifacts.dep_graph.delta_builds");
    std::vector<std::string> variant_ms;
    for (const double ms : result.variant_ms) {
      variant_ms.push_back(genoc::cli::json_number(ms));
    }
    out.add("roots_s", path_roots_s(rec))
        .add_raw("layers", json_map(layer_totals(rec)))
        .add_raw("cpu", json_map(result.cpu_s))
        .add_raw("counts", json_map(result.counts))
        .add("busy_ratio",
             static_cast<double>(delta.worker_busy_ns()) / 1e9 /
                 (static_cast<double>(result.threads) * result.path_s))
        .add_raw("variant_ms", genoc::cli::json_array(variant_ms));
    if (!args.spans_path.empty()) {
      write_spans(args.spans_path, rec, result.path_s,
                  sample_variants(result.variant_ms.size(), kSampledVariants,
                                  args.seed));
    }
  }
  std::cout << out.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.mode == "setup" ? run_setup(args) : run_path(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_layers: " << error.what() << "\n";
    return 1;
  }
}
