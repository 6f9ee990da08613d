/// \file main.cpp
/// \brief The unified `genoc` driver: one binary fronting verification,
///        analysis, fault campaigns, simulation, and graph export.
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "obs/trace.hpp"

namespace genoc::cli {

namespace {

constexpr const char* kVersion = "0.1.0";

constexpr const char* kUsage =
    "genoc — executable GeNoC (VerbeekS10): formal deadlock-freedom\n"
    "verification and simulation of on-chip interconnects.\n"
    "\n"
    "Usage: genoc <command> [options]\n"
    "\n"
    "Commands:\n"
    "  verify      discharge the proof obligations — on the classic HERMES\n"
    "              mesh, on one --instance (name or key=value spec), or on\n"
    "              every registered instance (--all matrix report)\n"
    "  analyze     static model analyzer: rule-based lints over --instance\n"
    "              or --all, with stable diagnostic codes (the rules:\n"
    "              `genoc list --rules`)\n"
    "  campaign    fault-injection campaign: enumerate link-failure\n"
    "              variants of a base instance (--faults single|double|\n"
    "              random:k,seed), screen each through the cheap analyzer\n"
    "              rules, verify survivors against shared artifacts\n"
    "  sim         run GeNoC2D on a traffic pattern with the CorrThm /\n"
    "              EvacThm / (C-5) audits on (--instance selects a network)\n"
    "  export-dot  port dependency graph as Graphviz DOT (paper Fig. 3)\n"
    "  list        the registered network instances and their specs\n"
    "  help        show this message (also: genoc <command> --help)\n"
    "  version     print the version\n"
    "\n"
    "Run `genoc <command> --help` for per-command options.\n";

}  // namespace

int finish_args(const Args& args, const char* usage) {
  bool bad = false;
  for (const std::string& error : args.errors()) {
    std::cerr << "genoc: " << error << "\n";
    bad = true;
  }
  for (const std::string& flag : args.unknown_flags()) {
    std::cerr << "genoc: unknown option " << flag << "\n";
    bad = true;
  }
  // No subcommand takes positionals; a stray one is usually a single-dash
  // flag typo (`-width 9`) that must not silently run with defaults.
  for (const std::string& positional : args.positionals()) {
    std::cerr << "genoc: unexpected argument '" << positional
              << "' (options use --name value)\n";
    bad = true;
  }
  if (bad) {
    std::cerr << "\n" << usage;
    return 2;
  }
  return 0;
}

std::vector<std::string> split_selection(const std::string& text) {
  std::vector<std::string> names;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) {
        names.push_back(current);
        current.clear();
      }
      continue;
    }
    current.push_back(c);
  }
  if (!current.empty()) {
    names.push_back(current);
  }
  return names;
}

TraceFlag::TraceFlag(const Args& args, std::string command,
                     std::string default_path)
    : command_(std::move(command)) {
  if (args.has("trace")) {
    path_ = args.get("trace", "");
    if (path_.empty()) {
      path_ = std::move(default_path);
    }
  }
}

int TraceFlag::start() {
  if (path_.empty()) {
    return 0;
  }
  out_.emplace(path_);
  if (!*out_) {
    std::cerr << "genoc " << command_ << ": cannot write --trace file '"
              << path_ << "' (check the directory exists and is writable)\n";
    return 2;
  }
  obs::TraceRecorder::global().start();
  return 0;
}

int TraceFlag::finish() {
  if (!out_.has_value()) {
    return 0;
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.stop();
  recorder.write_json(*out_);
  out_->flush();
  if (!*out_) {
    std::cerr << "genoc " << command_ << ": writing --trace file '" << path_
              << "' failed\n";
    return 2;
  }
  // stderr, so --trace composes with JSON on stdout.
  std::cerr << "genoc " << command_ << ": wrote " << recorder.event_count()
            << " trace events to " << path_
            << " (load in Perfetto or chrome://tracing)\n";
  return 0;
}

}  // namespace genoc::cli

int main(int argc, char** argv) {
  using namespace genoc::cli;

  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);

  if (command == "help" || command == "--help" || command == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (command == "version" || command == "--version") {
    std::cout << "genoc " << kVersion << "\n";
    return 0;
  }

  if (command == "verify") {
    return cmd_verify(args);
  }
  if (command == "analyze") {
    return cmd_analyze(args);
  }
  if (command == "campaign") {
    return cmd_campaign(args);
  }
  if (command == "sim") {
    return cmd_sim(args);
  }
  if (command == "export-dot") {
    return cmd_export_dot(args);
  }
  if (command == "list") {
    return cmd_list(args);
  }

  std::cerr << "genoc: unknown command '" << command << "'\n\n" << kUsage;
  return 2;
}
