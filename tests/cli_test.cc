// Integration tests for the fmotif command-line tool: exit codes, --help,
// malformed-input diagnostics, determinism, and the JSON output schema of
// every subcommand, with golden-file comparisons of number-normalized
// output.
//
// The binary path and golden directory arrive as compile definitions
// (FMOTIF_BINARY, FMOTIF_GOLDEN_DIR) from tests/CMakeLists.txt. To update
// goldens after an intentional output change:
//
//   FMOTIF_UPDATE_GOLDEN=1 ./build/tests/cli_test

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs `fmotif <args>` capturing stdout+stderr and the exit code.
CommandResult RunFmotif(const std::string& args) {
  const std::string command =
      std::string(FMOTIF_BINARY) + " " + args + " 2>&1";
  CommandResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fmotif_cli_" + name;
}

/// Runs an arbitrary shell command (for pipelines, background jobs and
/// signal delivery) capturing its stdout and exit code.
CommandResult RunShell(const std::string& command) {
  CommandResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Replaces every numeric literal with <num> and the test temp dir with
/// <tmp>, so goldens pin the output *structure* without rotting on
/// platform FP differences or temp paths.
std::string Normalize(std::string text) {
  const std::string tmp = ::testing::TempDir();
  std::size_t at = 0;
  while ((at = text.find(tmp, at)) != std::string::npos) {
    text.replace(at, tmp.size(), "<tmp>/");
  }
  static const std::regex number(R"(-?\d+(\.\d+)?([eE][+-]?\d+)?)");
  return std::regex_replace(text, number, "<num>");
}

std::string GoldenPath(const std::string& name) {
  return std::string(FMOTIF_GOLDEN_DIR) + "/" + name;
}

/// Compares `actual` (already normalized) against the golden file;
/// rewrites the golden when FMOTIF_UPDATE_GOLDEN is set.
void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("FMOTIF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to update " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with FMOTIF_UPDATE_GOLDEN=1 to create)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual) << "golden mismatch: " << name;
}

/// Structural JSON well-formedness: balanced braces/brackets outside
/// string literals, at least one top-level object.
bool LooksLikeValidJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool saw_root = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        saw_root = true;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string && saw_root;
}

/// The first line of NDJSON `text` whose frame type is `type` (empty when
/// there is none).
std::string FirstFrame(const std::string& text, const std::string& type) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"type\":\"" + type + "\"", 0) == 0) return line;
  }
  return "";
}

/// Writes a fixed deterministic trace and returns its path.
std::string WriteTrace(const std::string& name, const std::string& gen_args) {
  const std::string path = TempPath(name);
  const CommandResult gen = RunFmotif("gen " + gen_args + " --out=" + path);
  EXPECT_EQ(0, gen.exit_code) << gen.output;
  return path;
}

TEST(CliUsage, RootHelpExitsZero) {
  const CommandResult r = RunFmotif("--help");
  EXPECT_EQ(0, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("usage: fmotif"));
  ExpectMatchesGolden(Normalize(r.output), "help.golden");
}

TEST(CliUsage, PerCommandHelpExitsZero) {
  for (const char* command :
       {"motif", "stream", "fleet", "serve", "topk", "cross", "join",
        "cluster", "stats", "simplify", "gen"}) {
    const CommandResult r = RunFmotif(std::string(command) + " --help");
    EXPECT_EQ(0, r.exit_code) << command;
    EXPECT_NE(std::string::npos, r.output.find("usage: fmotif")) << command;
  }
}

TEST(CliUsage, NoArgumentsIsUsageError) {
  const CommandResult r = RunFmotif("");
  EXPECT_EQ(2, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("usage:"));
}

TEST(CliUsage, UnknownCommandIsUsageError) {
  const CommandResult r = RunFmotif("frobnicate");
  EXPECT_EQ(2, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("unknown command"));
}

TEST(CliUsage, MissingPositionalIsUsageError) {
  EXPECT_EQ(2, RunFmotif("motif").exit_code);
  EXPECT_EQ(2, RunFmotif("stream").exit_code);
  EXPECT_EQ(2, RunFmotif("fleet").exit_code);
  EXPECT_EQ(2, RunFmotif("cross one.csv").exit_code);
  EXPECT_EQ(2, RunFmotif("join only_one.csv").exit_code);
  EXPECT_EQ(2, RunFmotif("simplify in.csv").exit_code);  // --out required
}

TEST(CliDiagnostics, MissingFileIsRuntimeError) {
  const CommandResult r = RunFmotif("stats /nonexistent/trace.csv");
  EXPECT_EQ(1, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("cannot open"));
}

TEST(CliDiagnostics, MalformedCsvNamesTheRow) {
  const std::string path = TempPath("bad.csv");
  std::ofstream(path) << "lat,lon\n39.9,not_a_number\n";
  const CommandResult r = RunFmotif("stats " + path);
  EXPECT_EQ(1, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("malformed CSV row 2"));
}

TEST(CliDiagnostics, MalformedGeoJsonIsRuntimeError) {
  const std::string path = TempPath("bad.geojson");
  std::ofstream(path) << "{\"type\": \"Feature\"}";
  const CommandResult r = RunFmotif("stats " + path);
  EXPECT_EQ(1, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("coordinates"));
}

TEST(CliDiagnostics, NonFiniteEpsilonIsInvalidArgument) {
  // A NaN or infinite ε is rejected where it enters the engine — it would
  // otherwise switch pruning off, and a durable run started with it could
  // never recover (NaN never equals its own snapshot echo).
  const std::string path =
      WriteTrace("nan_eps.csv", "--kind=geolife --n=150 --seed=3");
  const std::string window = " --window=60 --slide=15 --xi=8";
  const std::string state = TempPath("nan_eps_state");
  RunShell("rm -rf " + state);
  for (const std::string& args :
       {"motif " + path + " --xi=8 --approx-eps=nan",
        "motif " + path + " --xi=8 --approx-eps=inf --json",
        "stream " + path + window + " --approx-eps=nan",
        "fleet " + path + " " + path + window + " --approx-eps=nan",
        "fleet " + path + " " + path + window + " --eps=nan",
        "fleet " + path + " " + path + window + " --eps=inf",
        "fleet " + path + window + " --eps=nan --state-dir=" + state,
        // Every DFD threshold follows one rule: finite and non-negative.
        "join " + path + " " + path + " --eps=nan",
        "join " + path + " " + path + " --eps=nan --grid",
        "join " + path + " " + path + " --eps=inf",
        "join " + path + " " + path + " --eps=inf --grid",
        "cluster " + path + " --window=50 --eps=nan"}) {
    const CommandResult r = RunFmotif(args);
    EXPECT_EQ(1, r.exit_code) << args << ": " << r.output;
    EXPECT_NE(std::string::npos, r.output.find("InvalidArgument")) << args;
  }
}

TEST(CliGen, DeterministicPerSeed) {
  const CommandResult a = RunFmotif("gen --kind=truck --n=50 --seed=9");
  const CommandResult b = RunFmotif("gen --kind=truck --n=50 --seed=9");
  const CommandResult c = RunFmotif("gen --kind=truck --n=50 --seed=10");
  EXPECT_EQ(0, a.exit_code);
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output, c.output);
  EXPECT_EQ(0u, a.output.find("lat,lon"));  // CSV header first
}

TEST(CliGen, JsonWithoutOutIsUsageError) {
  const CommandResult r = RunFmotif("gen --json");
  EXPECT_EQ(2, r.exit_code);
  EXPECT_NE(std::string::npos, r.output.find("--out"));
}

TEST(CliGen, UnknownKindIsUsageError) {
  EXPECT_EQ(2, RunFmotif("gen --kind=airplane").exit_code);
}

TEST(CliUsage, UnknownAlgorithmIsUsageErrorNamingTheChoices) {
  // A near miss ("gtmstar") must not silently run the default GTM.
  const std::string a = WriteTrace("alg_a.csv", "--kind=geolife --n=80 --seed=3");
  const std::string b = WriteTrace("alg_b.csv", "--kind=geolife --n=80 --seed=4");
  for (const std::string& args :
       {"motif " + a + " --xi=10 --algorithm=gtmstar",
        "motif " + a + " --xi=10 --algorithm=bogus --json",
        "cross " + a + " " + b + " --xi=10 --algorithm=bogus"}) {
    const CommandResult r = RunFmotif(args);
    EXPECT_EQ(2, r.exit_code) << args << ": " << r.output;
    EXPECT_NE(std::string::npos, r.output.find("gtm|gtm_star|btm|brute"))
        << args << ": " << r.output;
    EXPECT_EQ(std::string::npos, r.output.find("\"GTM\"")) << args;
  }
  EXPECT_EQ(0, RunFmotif("motif " + a + " --xi=10 --algorithm=gtm_star")
                   .exit_code);
}

TEST(CliUsage, UnknownMetricIsUsageErrorNamingTheChoices) {
  const std::string a = WriteTrace("met_a.csv", "--kind=geolife --n=80 --seed=3");
  const std::string b = WriteTrace("met_b.csv", "--kind=geolife --n=80 --seed=4");
  for (const std::string& args :
       {"motif " + a + " --xi=10 --metric=bogus",
        "cross " + a + " " + b + " --xi=10 --metric=bogus",
        "stream " + a + " --window=40 --slide=10 --xi=5 --metric=bogus"}) {
    const CommandResult r = RunFmotif(args);
    EXPECT_EQ(2, r.exit_code) << args << ": " << r.output;
    EXPECT_NE(std::string::npos, r.output.find("haversine|euclidean"))
        << args << ": " << r.output;
  }
  EXPECT_EQ(0, RunFmotif("motif " + a + " --xi=10 --metric=euclidean")
                   .exit_code);
}

TEST(CliJson, MotifSchemaAndGolden) {
  const std::string path = WriteTrace("m.csv", "--kind=geolife --n=400 --seed=7");
  const CommandResult r = RunFmotif("motif " + path + " --xi=60 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output)) << r.output;
  for (const char* key : {"\"command\"", "\"options\"", "\"result\"",
                          "\"distance_m\"", "\"stats\"", "\"pruning_ratio\""}) {
    EXPECT_NE(std::string::npos, r.output.find(key)) << key;
  }
  ExpectMatchesGolden(Normalize(r.output), "motif_json.golden");
}

TEST(CliStream, JsonReportsPerSlideAndSummaryGolden) {
  const std::string path =
      WriteTrace("st.csv", "--kind=geolife --n=200 --seed=7");
  const CommandResult r = RunFmotif(
      "stream " + path + " --window=80 --slide=20 --xi=12 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output)) << r.output;
  for (const char* key :
       {"\"window_start\"", "\"seeded\"", "\"carried\"", "\"distance_m\"",
        "\"dfd_cells_computed\"", "\"command\"", "\"points_ingested\"",
        "\"seeded_searches\""}) {
    EXPECT_NE(std::string::npos, r.output.find(key)) << key;
  }
  // (200 - 80) / 20 + 1 slides, one report each.
  std::size_t reports = 0;
  for (std::size_t at = 0;
       (at = r.output.find("\"window_start\"", at)) != std::string::npos;
       ++at) {
    ++reports;
  }
  EXPECT_EQ(7u, reports);
  ExpectMatchesGolden(Normalize(r.output), "stream_json.golden");
}

TEST(CliStream, JsonReportIsTheServeWireFrame) {
  // The CLI prints the wire schema: `fmotif stream --json` reports are
  // the frames a serve subscriber receives, pinned by the serve golden.
  const std::string path =
      WriteTrace("wire.csv", "--kind=geolife --n=120 --seed=7");
  const CommandResult r =
      RunFmotif("stream " + path + " --window=60 --slide=20 --xi=8 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  std::ifstream golden(GoldenPath("serve_wire.golden"));
  ASSERT_TRUE(golden.good());
  std::stringstream wire;
  wire << golden.rdbuf();
  const std::string expected = FirstFrame(wire.str(), "report");
  ASSERT_FALSE(expected.empty()) << wire.str();
  EXPECT_EQ(Normalize(expected), Normalize(FirstFrame(r.output, "report")));
}

TEST(CliStream, StdinTailsIdenticallyToFileInput) {
  const std::string path =
      WriteTrace("sin.csv", "--kind=geolife --n=160 --seed=9");
  const std::string args = " --window=60 --slide=30 --xi=8";
  const CommandResult from_file = RunFmotif("stream " + path + args);
  ASSERT_EQ(0, from_file.exit_code) << from_file.output;
  // Feed the same rows through a pipe: `fmotif stream -` consumes stdin
  // line by line, so live tailing works (`tail -f x.csv | fmotif stream -`).
  CommandResult from_stdin;
  const std::string command = "cat " + path + " | " +
                              std::string(FMOTIF_BINARY) + " stream -" + args +
                              " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(nullptr, pipe);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    from_stdin.output.append(buffer, n);
  }
  from_stdin.exit_code = WEXITSTATUS(pclose(pipe));
  EXPECT_EQ(0, from_stdin.exit_code) << from_stdin.output;
  EXPECT_EQ(from_file.output, from_stdin.output);
  EXPECT_NE(std::string::npos, from_file.output.find("seeded"));
}

TEST(CliStream, WindowLargerThanInputEmitsNoSlides) {
  const std::string path =
      WriteTrace("small.csv", "--kind=geolife --n=30 --seed=3");
  const CommandResult r =
      RunFmotif("stream " + path + " --window=60 --slide=10 --xi=8");
  EXPECT_EQ(0, r.exit_code) << r.output;
  EXPECT_NE(std::string::npos, r.output.find("0 slides"));
}

TEST(CliStream, InvalidWindowIsRuntimeError) {
  const std::string path =
      WriteTrace("inv.csv", "--kind=geolife --n=50 --seed=3");
  // xi=100 needs a window of at least 204 points.
  const CommandResult r = RunFmotif("stream " + path + " --window=50");
  EXPECT_EQ(1, r.exit_code);
}

/// Writes the trace's first 80 rows as bare `lat,lon`, then `bad_row`,
/// then the rest; with `prefix` every row is routed as `prefix,lat,lon`.
std::string WriteFeedWithRow(const std::string& name, const std::string& trace,
                             const std::string& bad_row,
                             const std::string& prefix) {
  const std::string path = TempPath(name);
  const std::string head = prefix.empty() ? "" : prefix + ",";
  RunShell("awk -F, 'NR > 1 { print \"" + head + "\" $1 \",\" $2 } NR == 81 "
           "{ print \"" + head + bad_row + "\" }' " + trace + " > " + path);
  return path;
}

TEST(CliStream, NonFiniteOrOffGlobeRowFailsTheRun) {
  // The engine checks every point where it enters: a NaN coordinate, or
  // a latitude/longitude off the globe under the haversine metric, ends
  // the run with an error instead of feeding windows.
  const std::string trace =
      WriteTrace("badsrc.csv", "--kind=geolife --n=150 --seed=3");
  const std::string state = TempPath("bad_state");
  for (const char* bad : {"nan,116.3", "95,400"}) {
    const std::string feed = WriteFeedWithRow("badrow.csv", trace, bad, "");
    const std::string args = " --window=60 --slide=15 --xi=8";
    const CommandResult plain = RunFmotif("stream " + feed + args);
    EXPECT_EQ(1, plain.exit_code) << bad << ": " << plain.output;
    EXPECT_NE(std::string::npos, plain.output.find("InvalidArgument")) << bad;
    RunShell("rm -rf " + state);
    const CommandResult durable =
        RunFmotif("stream " + feed + args + " --state-dir=" + state);
    EXPECT_EQ(1, durable.exit_code) << bad << ": " << durable.output;
  }
}

TEST(CliFleet, NonFiniteOrOffGlobeRowFailsTheRun) {
  const std::string trace =
      WriteTrace("fbadsrc.csv", "--kind=geolife --n=150 --seed=3");
  for (const char* bad : {"nan,116.3", "95,400"}) {
    const std::string feed = WriteFeedWithRow("fbadrow.csv", trace, bad, "0");
    const CommandResult r = RunShell(std::string(FMOTIF_BINARY) +
                                     " fleet - --window=60 --slide=15 --xi=8 "
                                     "< " + feed + " 2>&1");
    EXPECT_EQ(1, r.exit_code) << bad << ": " << r.output;
    EXPECT_NE(std::string::npos, r.output.find("InvalidArgument")) << bad;
  }
}

TEST(CliDiagnostics, OffGlobeRowOrInfiniteTimestampFailsBatchCommands) {
  // The batch path checks points as the streaming one does: an off-globe
  // row under haversine fails the motif search, and a non-finite
  // timestamp fails the load, even on the last row.
  const std::string trace =
      WriteTrace("mbadsrc.csv", "--kind=geolife --n=200 --seed=3");
  const std::string off_globe =
      WriteFeedWithRow("moffglobe.csv", trace, "95.0,400.0", "");
  const std::string inf_stamp = TempPath("infstamp.csv");
  std::ofstream(inf_stamp) << "lat,lon,timestamp\n39.90,116.30,0\n"
                              "39.91,116.31,1\n39.92,116.32,inf\n";
  for (const std::string& args :
       {"motif " + off_globe + " --xi=10", "stats " + inf_stamp}) {
    const CommandResult r = RunFmotif(args);
    EXPECT_EQ(1, r.exit_code) << args << ": " << r.output;
    EXPECT_NE(std::string::npos, r.output.find("InvalidArgument")) << args;
  }
}

// A 40-point trace whose 20th point lies off the globe (lat 95). Batch
// commands that never build a distance matrix must reject it too.
std::string WriteOffGlobeTrace(const std::string& name) {
  const std::string trace =
      WriteTrace(name + ".src", "--kind=geolife --n=40 --seed=3");
  const std::string path = TempPath(name);
  RunShell("awk -F, 'NR == 21 { print \"95.0,116.32\"; next } "
           "{ print $1 \",\" $2 }' " + trace + " > " + path);
  return path;
}

void ExpectOutOfRange(const std::string& args) {
  const CommandResult r = RunFmotif(args);
  EXPECT_EQ(1, r.exit_code) << args << ": " << r.output;
  EXPECT_NE(std::string::npos,
            r.output.find("latitude/longitude out of range"))
      << args << ": " << r.output;
}

TEST(CliDiagnostics, OffGlobeRowFailsGtmStarMotif) {
  ExpectOutOfRange("motif " + WriteOffGlobeTrace("gsbad.csv") +
                   " --algorithm=gtm_star --xi=5");
}

TEST(CliDiagnostics, OffGlobeRowFailsGtmStarCross) {
  const std::string good =
      WriteTrace("gsgood.csv", "--kind=geolife --n=40 --seed=4");
  ExpectOutOfRange("cross " + WriteOffGlobeTrace("gscbad.csv") + " " + good +
                   " --algorithm=gtm_star --xi=5");
}

TEST(CliDiagnostics, OffGlobeRowFailsJoin) {
  const std::string bad = WriteOffGlobeTrace("jbad.csv");
  const std::string good =
      WriteTrace("jgood.csv", "--kind=geolife --n=40 --seed=4");
  ExpectOutOfRange("join " + bad + " " + good + " --eps=100");
  ExpectOutOfRange("join " + bad + " " + good + " --eps=100 --grid");
}

TEST(CliDiagnostics, OffGlobeRowFailsCluster) {
  ExpectOutOfRange("cluster " + WriteOffGlobeTrace("cbad.csv") +
                   " --window=10 --stride=5 --eps=5000");
}

TEST(CliFleet, MembersRunDurablyAndRecoverOnRestart) {
  // --members and --state-dir combine: the journal records each member's
  // options, so a restart recovers the heterogeneous fleet as declared.
  const std::string a = WriteTrace("ma.csv", "--kind=geolife --n=140 --seed=7");
  const std::string b = WriteTrace("mb.csv", "--kind=geolife --n=140 --seed=8");
  const std::string c = WriteTrace("mc.csv", "--kind=truck --n=140 --seed=9");
  const std::string state = TempPath("members_state");
  RunShell("rm -rf " + state);
  const std::string args = " " + a + " " + b + " " + c +
                           " --members=s,x:0.05 --window=60 --slide=20 "
                           "--xi=8 --eps=200";
  const CommandResult plain = RunFmotif("fleet" + args);
  ASSERT_EQ(0, plain.exit_code) << plain.output;
  const CommandResult durable =
      RunFmotif("fleet" + args + " --state-dir=" + state);
  ASSERT_EQ(0, durable.exit_code) << durable.output;
  EXPECT_EQ(plain.output, durable.output);
  const CommandResult resumed =
      RunFmotif("fleet" + args + " --state-dir=" + state + " --json");
  ASSERT_EQ(0, resumed.exit_code) << resumed.output;
  EXPECT_NE(std::string::npos, resumed.output.find("recovered: snapshot=yes"))
      << resumed.output;
  EXPECT_NE(std::string::npos, resumed.output.find("\"members\":2"))
      << resumed.output;
}

TEST(CliStream, DurableRunMatchesPlainRunAndRecoversOnRestart) {
  const std::string path =
      WriteTrace("dur.csv", "--kind=geolife --n=160 --seed=11");
  const std::string state = TempPath("dur_state");
  RunShell("rm -rf " + state);
  const std::string args = " --window=60 --slide=30 --xi=8";

  const CommandResult plain = RunFmotif("stream " + path + args);
  ASSERT_EQ(0, plain.exit_code) << plain.output;
  // A fresh durable run emits bit-identical per-slide reports and the
  // same summary (the journal and snapshots are pure bookkeeping).
  const CommandResult durable =
      RunFmotif("stream " + path + args + " --state-dir=" + state);
  ASSERT_EQ(0, durable.exit_code) << durable.output;
  EXPECT_EQ(plain.output, durable.output);

  // A restart over the same state directory recovers instead of starting
  // cold: snapshot restored, journal tail replayed, stream re-registered.
  const CommandResult resumed =
      RunFmotif("stream " + path + args + " --state-dir=" + state);
  ASSERT_EQ(0, resumed.exit_code) << resumed.output;
  EXPECT_NE(std::string::npos, resumed.output.find("recovered: snapshot=yes"))
      << resumed.output;
}

TEST(CliStream, SigintFlushesSummaryAndSyncsJournal) {
  const std::string path =
      WriteTrace("sig.csv", "--kind=geolife --n=160 --seed=13");
  const std::string state = TempPath("sig_state");
  const std::string args = " --window=60 --slide=30 --xi=8";

  // Feed every row, then hold the pipe open so the tool blocks in its
  // stdin read; SIGINT must end the feed cleanly — summary flushed,
  // journal synced — instead of killing the process mid-report.
  const std::string command =
      "rm -rf " + state + "; ( cat " + path + "; sleep 2 ) | " +
      std::string(FMOTIF_BINARY) + " stream -" + args + " --state-dir=" +
      state + " 2>&1 & pid=$!; sleep 1; kill -INT $pid; wait $pid; "
      "echo rc=$?";
  const CommandResult r = RunShell(command);
  EXPECT_NE(std::string::npos, r.output.find("interrupted: flushing summary"))
      << r.output;
  EXPECT_NE(std::string::npos, r.output.find("160 points")) << r.output;
  EXPECT_NE(std::string::npos, r.output.find("rc=0")) << r.output;

  // The synced journal makes the interrupted run recoverable.
  const CommandResult resumed =
      RunFmotif("stream " + path + args + " --state-dir=" + state);
  ASSERT_EQ(0, resumed.exit_code) << resumed.output;
  EXPECT_NE(std::string::npos, resumed.output.find("recovered: snapshot=yes"))
      << resumed.output;
}

TEST(CliFleet, SigtermEndsTheMultiplexFeedCleanly) {
  const std::string a = WriteTrace("sga.csv", "--kind=geolife --n=80 --seed=5");
  // Multiplex the trace onto stream 0 as `0,lat,lon` rows, then hold the
  // pipe open and SIGTERM the tool: the fleet summary must still appear.
  const std::string command =
      "( sed 's/^/0,/' " + a + "; sleep 2 ) | " +
      std::string(FMOTIF_BINARY) +
      " fleet - --window=60 --slide=30 --xi=8 2>&1 & pid=$!; sleep 1; "
      "kill -TERM $pid; wait $pid; echo rc=$?";
  const CommandResult r = RunShell(command);
  EXPECT_NE(std::string::npos, r.output.find("interrupted: flushing summary"))
      << r.output;
  EXPECT_NE(std::string::npos, r.output.find("1 streams")) << r.output;
  EXPECT_NE(std::string::npos, r.output.find("rc=0")) << r.output;
}

TEST(CliFleet, JsonReportsSlidesJoinDeltasAndSummaryGolden) {
  const std::string a = WriteTrace("fa.csv", "--kind=geolife --n=160 --seed=7");
  const std::string b = WriteTrace("fb.csv", "--kind=geolife --n=160 --seed=7");
  const std::string c = WriteTrace("fc.csv", "--kind=truck --n=160 --seed=9");
  const CommandResult r = RunFmotif("fleet " + a + " " + b + " " + c +
                                    " --window=60 --slide=20 --xi=8 "
                                    "--eps=200 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output)) << r.output;
  for (const char* key :
       {"\"stream\"", "\"window_start\"", "\"seeded\"", "\"carried\"",
        "\"distance_m\"", "\"join_delta\"", "\"entered\"",
        "\"coalesced_slides\"", "\"late_dropped\"", "\"reordered\"",
        "\"verdicts_carried\"", "\"current_matches\"",
        "\"command\":\"fleet\""}) {
    EXPECT_NE(std::string::npos, r.output.find(key)) << key;
  }
  // 3 streams x ((160 - 60) / 20 + 1) slides, one report each.
  std::size_t reports = 0;
  for (std::size_t at = 0;
       (at = r.output.find("\"window_start\"", at)) != std::string::npos;
       ++at) {
    ++reports;
  }
  EXPECT_EQ(18u, reports);
  ExpectMatchesGolden(Normalize(r.output), "fleet_json.golden");
}

TEST(CliFleet, PerStreamOutputMatchesIndependentStreamRuns) {
  // `stream X` is a one-stream `fleet X`: both print the same report
  // lines and summary, as text and as NDJSON frames (where only the
  // summary's command name differs).
  const std::string a = WriteTrace("fp.csv", "--kind=geolife --n=150 --seed=3");
  const std::string args = " --window=60 --slide=15 --xi=8";
  for (const bool json : {false, true}) {
    const std::string flags = args + (json ? " --json" : "");
    const CommandResult alone = RunFmotif("stream " + a + flags);
    const CommandResult fleet = RunFmotif("fleet " + a + flags);
    ASSERT_EQ(0, alone.exit_code) << alone.output;
    ASSERT_EQ(0, fleet.exit_code) << fleet.output;
    std::string expected = alone.output;
    if (json) {
      const std::string command = "\"command\":\"stream\"";
      const std::size_t at = expected.find(command);
      ASSERT_NE(std::string::npos, at) << expected;
      expected.replace(at, command.size(), "\"command\":\"fleet\"");
    }
    EXPECT_EQ(expected, fleet.output) << flags;
    const std::string report = json ? "{\"type\":\"report\"" : "s0 @";
    int reports = 0;
    for (std::size_t at = 0;
         (at = fleet.output.find(report, at)) != std::string::npos; ++at) {
      ++reports;
    }
    EXPECT_GT(reports, 3) << fleet.output;
  }
}

TEST(CliFleet, StdinMultiplexRegistersStreamsOnTheFly) {
  const std::string a = WriteTrace("fm.csv", "--kind=geolife --n=120 --seed=5");
  // Build a multiplexed feed: every row of the trace goes to streams 0
  // and 1 alternately... simpler: same row to both streams via awk.
  const std::string command =
      "awk -F, 'NR>1 { print \"0,\" $0; print \"1,\" $0 }' " + a + " | " +
      std::string(FMOTIF_BINARY) + " fleet - --window=50 --slide=10 --xi=6" +
      " 2>&1";
  CommandResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(nullptr, pipe);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  result.exit_code = WEXITSTATUS(pclose(pipe));
  EXPECT_EQ(0, result.exit_code) << result.output;
  EXPECT_NE(std::string::npos, result.output.find("2 streams"));
  EXPECT_NE(std::string::npos, result.output.find("s0 @"));
  EXPECT_NE(std::string::npos, result.output.find("s1 @"));
}

TEST(CliFleet, NonNumericOrHugeStreamIdIsRejectedNotCast) {
  // Stream ids are validated before the double -> size_t cast (the cast
  // alone would be undefined behavior for nan/inf/out-of-range).
  for (const char* bad : {"nan", "inf", "1e300", "-1", "1.5"}) {
    const std::string command =
        std::string("printf '0,45.0,7.0\\n") + bad + ",45.0,7.0\\n' | " +
        std::string(FMOTIF_BINARY) + " fleet - --window=50 --xi=6 2>&1";
    std::FILE* pipe = popen(command.c_str(), "r");
    ASSERT_NE(nullptr, pipe) << bad;
    std::string output;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
      output.append(buffer, n);
    }
    const int exit_code = WEXITSTATUS(pclose(pipe));
    EXPECT_EQ(1, exit_code) << bad << ": " << output;
    EXPECT_NE(std::string::npos, output.find("malformed fleet row 2")) << bad;
  }
}

TEST(CliFleet, BudgetCapsSearchesAndCountsCoalescedSlides) {
  const std::string a = WriteTrace("fb1.csv", "--kind=geolife --n=200 --seed=2");
  const std::string b = WriteTrace("fb2.csv", "--kind=truck --n=200 --seed=4");
  const CommandResult r = RunFmotif(
      "fleet " + a + " " + b +
      " --window=60 --slide=10 --xi=8 --budget=1 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  // With budget 1 and two always-due streams, slides coalesce.
  const std::string summary = FirstFrame(r.output, "summary");
  const std::string key = "\"coalesced_slides\":";
  const std::size_t at = summary.find(key);
  ASSERT_NE(std::string::npos, at) << summary;
  EXPECT_GT(std::strtoll(summary.c_str() + at + key.size(), nullptr, 10), 0)
      << summary;
}

TEST(CliJson, TopKReturnsAscendingDistances) {
  const std::string path = WriteTrace("k.csv", "--kind=geolife --n=400 --seed=7");
  const CommandResult r = RunFmotif("topk " + path + " --k=3 --xi=50 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  EXPECT_NE(std::string::npos, r.output.find("\"results\""));
}

TEST(CliJson, LegacyMotifTopkFlagRoutesToTopK) {
  // The pre-subcommand CLI spelled top-k as `motif --topk=N`; that must
  // keep returning N ranked motifs, not silently fall back to the best.
  const std::string path = WriteTrace("lk.csv", "--kind=geolife --n=400 --seed=7");
  const CommandResult legacy =
      RunFmotif("motif " + path + " --topk=3 --xi=50 --json");
  const CommandResult modern =
      RunFmotif("topk " + path + " --k=3 --xi=50 --json");
  ASSERT_EQ(0, legacy.exit_code) << legacy.output;
  EXPECT_NE(std::string::npos, legacy.output.find("\"results\""));
  EXPECT_EQ(Normalize(legacy.output), Normalize(modern.output));
}

TEST(CliJson, JoinSchemaAndGolden) {
  const std::string a = WriteTrace("ja.csv", "--kind=geolife --n=200 --seed=1");
  const std::string b = WriteTrace("jb.csv", "--kind=geolife --n=200 --seed=1");
  const std::string c = WriteTrace("jc.csv", "--kind=truck --n=200 --seed=2");
  const CommandResult r =
      RunFmotif("join " + a + " " + b + " " + c + " --eps=100 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  // Identical seeds must match; the truck trace must not.
  EXPECT_NE(std::string::npos, r.output.find("ja.csv"));
  EXPECT_NE(std::string::npos, r.output.find("\"matched\": 1"));
  ExpectMatchesGolden(Normalize(r.output), "join_json.golden");
}

TEST(CliJson, ClusterSchema) {
  const std::string path = WriteTrace("c.csv", "--kind=geolife --n=400 --seed=7");
  const CommandResult r =
      RunFmotif("cluster " + path + " --window=50 --stride=25 --eps=5000 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  EXPECT_NE(std::string::npos, r.output.find("\"clusters\""));
  EXPECT_NE(std::string::npos, r.output.find("\"window_pairs\""));
}

TEST(CliJson, StatsSchema) {
  const std::string path = WriteTrace("s.csv", "--kind=baboon --n=100 --seed=3");
  const CommandResult r = RunFmotif("stats " + path + " --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  EXPECT_NE(std::string::npos, r.output.find("\"path_length_m\""));
}

TEST(CliJson, SimplifyReportsPointCounts) {
  const std::string in = WriteTrace("sp.csv", "--kind=geolife --n=300 --seed=4");
  const std::string out = TempPath("sp_out.geojson");
  const CommandResult r =
      RunFmotif("simplify " + in + " --tolerance=20 --out=" + out + " --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  EXPECT_NE(std::string::npos, r.output.find("\"points_before\": 300"));
  // The simplified GeoJSON must itself load.
  const CommandResult reread = RunFmotif("stats " + out);
  EXPECT_EQ(0, reread.exit_code) << reread.output;
}

TEST(CliPipeline, ThreadsProduceIdenticalResults) {
  const std::string path = WriteTrace("t.csv", "--kind=geolife --n=400 --seed=7");
  const CommandResult serial = RunFmotif("motif " + path + " --xi=60 --json");
  const CommandResult parallel =
      RunFmotif("motif " + path + " --xi=60 --threads=4 --json");
  ASSERT_EQ(0, serial.exit_code);
  ASSERT_EQ(0, parallel.exit_code);
  // Thread count appears in the echoed options; results must be identical.
  EXPECT_EQ(Normalize(serial.output), Normalize(parallel.output));
}

TEST(CliPipeline, IngestSimplificationChangesPointCount) {
  const std::string path = WriteTrace("is.csv", "--kind=geolife --n=300 --seed=4");
  const CommandResult full = RunFmotif("stats " + path + " --json");
  const CommandResult simplified =
      RunFmotif("stats " + path + " --simplify-tolerance=25 --json");
  ASSERT_EQ(0, full.exit_code);
  ASSERT_EQ(0, simplified.exit_code);
  EXPECT_NE(std::string::npos, full.output.find("\"points\": 300"));
  EXPECT_EQ(std::string::npos, simplified.output.find("\"points\": 300"));
}

TEST(CliPipeline, CrossTrajectoryMotif) {
  const std::string a = WriteTrace("xa.csv", "--kind=geolife --n=250 --seed=1");
  const std::string b = WriteTrace("xb.csv", "--kind=geolife --n=250 --seed=1");
  const CommandResult r = RunFmotif("cross " + a + " " + b + " --xi=60 --json");
  ASSERT_EQ(0, r.exit_code) << r.output;
  EXPECT_TRUE(LooksLikeValidJson(r.output));
  EXPECT_NE(std::string::npos, r.output.find("\"command\": \"cross\""));
}

TEST(CliStream, FinalRowWithoutNewlineIsStillIngested) {
  // A tailed feed often ends without a trailing newline (truncated file,
  // `printf` producer). The final row must still count.
  const std::string path =
      WriteTrace("nonl.csv", "--kind=geolife --n=160 --seed=9");
  const std::string args = " --window=60 --slide=30 --xi=8";
  const CommandResult from_file = RunFmotif("stream " + path + args);
  ASSERT_EQ(0, from_file.exit_code) << from_file.output;
  const CommandResult stripped = RunShell(
      "head -c -1 " + path + " | " + std::string(FMOTIF_BINARY) +
      " stream -" + args + " 2>&1");
  EXPECT_EQ(0, stripped.exit_code) << stripped.output;
  EXPECT_EQ(from_file.output, stripped.output);
  EXPECT_NE(std::string::npos, stripped.output.find("160 points"))
      << stripped.output;
}

TEST(CliFleet, FinalRowWithoutNewlineIsStillIngested) {
  const std::string a =
      WriteTrace("fnl.csv", "--kind=geolife --n=80 --seed=5");
  const std::string args = " --window=60 --slide=30 --xi=8";
  const std::string mux = "sed 's/^/0,/' " + a;
  const CommandResult full = RunShell(
      mux + " | " + std::string(FMOTIF_BINARY) + " fleet -" + args + " 2>&1");
  ASSERT_EQ(0, full.exit_code) << full.output;
  const CommandResult stripped = RunShell(
      mux + " | head -c -1 | " + std::string(FMOTIF_BINARY) + " fleet -" +
      args + " 2>&1");
  EXPECT_EQ(0, stripped.exit_code) << stripped.output;
  EXPECT_EQ(full.output, stripped.output);
  EXPECT_NE(std::string::npos, stripped.output.find("80 points"))
      << stripped.output;
}

TEST(CliServe, SigtermDrainsCheckpointsAndRestartRecovers) {
  // Drives the real binary over a real socket: start `fmotif serve` with
  // a state directory, feed rows and subscribe through bash's /dev/tcp,
  // SIGTERM it mid-session, and check the drain delivered a bye frame,
  // the summary flushed, and a restart recovers from the checkpoint.
  if (RunShell("bash -c 'exit 42'").exit_code != 42) {
    GTEST_SKIP() << "bash unavailable (needed for /dev/tcp client)";
  }
  const std::string state = TempPath("serve_state");
  const std::string err = TempPath("serve_err");
  const std::string script = TempPath("serve_drive.sh");
  const std::string args =
      " --window=16 --slide=4 --xi=2 --state-dir=" + state + " --json";
  {
    std::ofstream out(script);
    out << "set -u\n"
        << "rm -rf " << state << "\n"
        << std::string(FMOTIF_BINARY) << " serve --port=0" << args << " 2> "
        << err << " &\npid=$!\nport=\n"
        << "for i in $(seq 1 100); do\n"
        << "  port=$(sed -n 's/^listening on 127\\.0\\.0\\.1:\\([0-9]*\\)$"
        << "/\\1/p' " << err << ")\n"
        << "  [ -n \"$port\" ] && break\n  sleep 0.1\ndone\n"
        << "[ -n \"$port\" ] || { echo no-port; kill \"$pid\"; exit 1; }\n"
        << "exec 3<>/dev/tcp/127.0.0.1/\"$port\"\n"
        << "printf 'SUB reports\\n' >&3\n"
        << "for i in $(seq 0 39); do printf '0,40.%03d,-70.0\\n' \"$i\" >&3; "
        << "done\nsleep 0.5\nkill -TERM \"$pid\"\n"
        << "cat <&3\n"  // drains frames until the server closes the socket
        << "wait \"$pid\"\necho rc=$?\n";
    ASSERT_TRUE(out.good());
  }
  const CommandResult r = RunShell("bash " + script);
  EXPECT_NE(std::string::npos, r.output.find("{\"type\":\"hello\""))
      << r.output;
  EXPECT_NE(std::string::npos, r.output.find("{\"type\":\"report\""))
      << r.output;
  EXPECT_NE(std::string::npos,
            r.output.find("{\"type\":\"bye\",\"reason\":\"draining\"}"))
      << r.output;
  EXPECT_NE(std::string::npos, r.output.find("\"command\":\"serve\""))
      << r.output;
  EXPECT_NE(std::string::npos, r.output.find("\"points_ingested\":40"))
      << r.output;
  EXPECT_NE(std::string::npos, r.output.find("rc=0")) << r.output;

  // A restart over the same state directory resumes from the checkpoint
  // the drain wrote, then exits on its own via the runtime valve.
  const CommandResult resumed =
      RunFmotif("serve --port=0" + args + " --max-runtime-ms=300");
  ASSERT_EQ(0, resumed.exit_code) << resumed.output;
  EXPECT_NE(std::string::npos, resumed.output.find("recovered: snapshot="))
      << resumed.output;
  EXPECT_NE(std::string::npos, resumed.output.find("\"streams\":1"))
      << resumed.output;
}

}  // namespace
