/// \file commands.hpp
/// \brief Subcommand entry points of the unified `genoc` driver.
///
/// One binary fronts every scenario the scattered example/bench mains used
/// to own:
///   genoc verify      — discharge the proof obligations (Table I shape),
///                       per --instance or as a --all registry matrix
///   genoc sim         — run GeNoC2D on a traffic pattern with auditing
///   genoc export-dot  — dependency graph as Graphviz DOT (paper Fig. 3)
///   genoc list        — the registered network instances
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace genoc::cli {

int cmd_verify(const Args& args);
int cmd_analyze(const Args& args);
int cmd_campaign(const Args& args);
int cmd_sim(const Args& args);
int cmd_export_dot(const Args& args);
int cmd_list(const Args& args);

/// Prints \p usage plus any parse errors / unknown flags; returns 2 when
/// the invocation was malformed, 0 otherwise. Call after all flag reads.
int finish_args(const Args& args, const char* usage);

/// Splits a comma-separated selection (`--stages A,B`, `--rules A,B`) into
/// its tokens; empty tokens are dropped, so a fully empty value yields the
/// empty list the from_*_names factories reject as "empty selection".
std::vector<std::string> split_selection(const std::string& text);

/// The `--trace [F]` flag of verify and campaign: a Chrome
/// trace-event span trace of the run. The file opens before the run, so an
/// unwritable path exits 2 up front instead of after minutes of work.
class TraceFlag {
 public:
  /// Reads `--trace` (construct before finish_args). A bare flag records
  /// to \p default_path.
  TraceFlag(const Args& args, std::string command, std::string default_path);

  /// Opens the file and starts the recorder: 0, or 2 after a complaint on
  /// stderr. Without the flag, does nothing.
  int start();

  /// Stops the recorder, writes the trace and checks the flush: 0, or 2
  /// after a complaint on stderr. Without the flag, does nothing.
  int finish();

 private:
  std::string command_;
  std::string path_;
  std::optional<std::ofstream> out_;
};

}  // namespace genoc::cli
