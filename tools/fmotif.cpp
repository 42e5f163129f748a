// fmotif — command-line front end driving the whole library pipeline:
// ingest (CSV / GeoJSON / GeoLife PLT), optional simplification, motif
// discovery / top-k / join / clustering / synthetic generation, and
// human-readable or JSON (--json) results on stdout.
//
// Subcommands and flags are documented by `fmotif --help` and
// `fmotif <command> --help`; the full walkthrough is docs/TUTORIAL.md.
//
// Exit codes: 0 success, 1 runtime/data error, 2 usage error.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/subtrajectory_cluster.h"
#include "durable/durable_fleet.h"
#include "core/trajectory_stats.h"
#include "data/datasets.h"
#include "data/io.h"
#include "data/simplify.h"
#include "geo/metric.h"
#include "join/similarity_join.h"
#include "motif/motif.h"
#include "motif/top_k.h"
#include "serve/motif_server.h"
#include "serve/serve_loop.h"
#include "serve/serve_socket.h"
#include "stream/motif_fleet_engine.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/numeric.h"

namespace fm = frechet_motif;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

constexpr char kGlobalFlagsHelp[] =
    "global flags:\n"
    "  --json                    machine-readable JSON results on stdout\n"
    "  --threads=N               worker threads (1 = serial, 0 = all "
    "hardware threads);\n"
    "                            results are bit-identical for every "
    "setting\n"
    "  --metric=haversine|euclidean\n"
    "                            ground distance (default haversine, "
    "meters)\n"
    "  --simplify-tolerance=M    Douglas-Peucker simplify every input at "
    "ingest\n"
    "  --help                    print usage (global or per command)\n";

int Usage(std::FILE* stream) {
  std::fprintf(
      stream,
      "fmotif — trajectory motif discovery under the discrete Fréchet "
      "distance\n"
      "(Tang et al., EDBT 2017)\n"
      "\n"
      "usage: fmotif <command> [<files>] [--flags]\n"
      "\n"
      "commands:\n"
      "  motif    <file>            best motif pair within one trajectory\n"
      "  stream   <file|->          maintain the motif over a live sliding "
      "window\n"
      "  fleet    <file>...|-       N sliding windows over one arrival "
      "loop,\n"
      "                             with optional ε-join deltas\n"
      "  serve                      fleet engine behind a TCP line "
      "protocol\n"
      "  topk     <file>            the k best motifs, diversity-separated\n"
      "  cross    <fileA> <fileB>   best motif pair across two "
      "trajectories\n"
      "  join     <file> <file>...  all pairs with DFD <= eps\n"
      "  cluster  <file>            star-shaped subtrajectory clusters\n"
      "  stats    <file>...         descriptive trajectory statistics\n"
      "  simplify <file>            Douglas-Peucker simplification\n"
      "  gen                        synthetic dataset generation\n"
      "\n"
      "Input files are CSV (\"lat,lon[,timestamp]\"), GeoJSON LineString\n"
      "(.geojson/.json) or GeoLife PLT (.plt), chosen by extension.\n"
      "\n"
      "%s"
      "\n"
      "`fmotif <command> --help` documents the per-command flags.\n",
      kGlobalFlagsHelp);
  return stream == stdout ? kExitOk : kExitUsage;
}

int CommandUsage(std::FILE* stream, const std::string& command) {
  if (command == "motif" || command == "cross") {
    std::fprintf(
        stream,
        "usage: fmotif %s [--xi=100] [--algorithm=gtm|gtm_star|btm|brute]\n"
        "       [--tau=32] [--approx-eps=0] [--json] [--threads=N]\n"
        "\n"
        "Finds the pair of non-overlapping subtrajectories (one file) or "
        "the best\n"
        "cross-trajectory pair (two files), each spanning more than xi "
        "index\n"
        "steps, with the smallest discrete Fréchet distance. All "
        "algorithms are\n"
        "exact at --approx-eps=0 (the default); they differ in pruning "
        "power (gtm\n"
        "is the paper's fastest). --approx-eps=E trades accuracy for "
        "speed: the\n"
        "reported distance is at most (1+E) times the optimum (brute "
        "ignores E).\n",
        command == "motif" ? "motif <file>" : "cross <fileA> <fileB>");
  } else if (command == "stream") {
    std::fprintf(
        stream,
        "usage: fmotif stream <file|-> [--window=512] [--slide=32] "
        "[--xi=100]\n"
        "       [--approx-eps=0] [--state-dir=DIR] [--checkpoint=N] "
        "[--json]\n"
        "       [--threads=N]\n"
        "\n"
        "Feeds a trajectory point stream through the incremental "
        "sliding-window\n"
        "motif engine and emits one report per slide: the motif of the "
        "last\n"
        "--window points, re-derived every --slide arrivals without "
        "rebuilding\n"
        "state (ring-buffer distance matrix, incrementally maintained "
        "bounds,\n"
        "threshold carried across slides). Each answer's distance is "
        "exactly\n"
        "what a from-scratch `fmotif motif --algorithm=btm` would report "
        "on the\n"
        "same window. --approx-eps=E relaxes each per-window answer to at "
        "most\n"
        "(1+E) times that window's optimum (never compounding across "
        "slides).\n"
        "\n"
        "The file is read whole and replayed point by point; pass `-` to "
        "tail\n"
        "stdin row by row (e.g. `tail -f live.csv | fmotif stream -`). "
        "`stream`\n"
        "is a one-stream `fleet` and prints the same lines. With --json, "
        "stdout\n"
        "is NDJSON: one `report` frame per slide, byte for byte what a "
        "`fmotif\n"
        "serve` subscriber receives, then one `summary` line.\n"
        "\n"
        "--state-dir=DIR makes the run durable: engine state is "
        "checkpointed\n"
        "and journaled there (rotating a snapshot every --checkpoint=N\n"
        "records), and a restart recovers the window and resumes. SIGINT/\n"
        "SIGTERM end the feed cleanly: the summary is still flushed and "
        "the\n"
        "journal synced before exit.\n");
  } else if (command == "fleet") {
    std::fprintf(
        stream,
        "usage: fmotif fleet <file>... | - [--window=512] [--slide=32] "
        "[--xi=100]\n"
        "       [--approx-eps=0] [--members=SPEC] [--eps=M] [--reorder=K]\n"
        "       [--budget=K] [--state-dir=DIR] [--checkpoint=N] [--json]\n"
        "       [--threads=N]\n"
        "\n"
        "Maintains one sliding-window motif per input stream behind a "
        "single\n"
        "arrival loop, scheduler and worker pool (MotifFleetEngine). Each "
        "file\n"
        "is one stream, ingested round-robin; pass `-` to multiplex stdin\n"
        "instead, one point per line as `stream,lat,lon[,timestamp]` "
        "(stream\n"
        "ids are dense integers from 0; new ids add streams on the fly).\n"
        "\n"
        "Every slide report is bit-identical to an independent `fmotif "
        "stream`\n"
        "on that stream. --eps additionally maintains the DFD ε-join "
        "across\n"
        "the fleet's windows and reports per-slide join deltas (stream "
        "pairs\n"
        "entering/leaving ε). --reorder=K buffers up to K timestamped "
        "points\n"
        "per stream to fix out-of-order feeds (late arrivals below the\n"
        "watermark are dropped and counted). --budget=K caps searches per\n"
        "drain — a backlogged window coalesces its pending slides.\n"
        "\n"
        "With --json, stdout is NDJSON: one `report` frame per slide and "
        "one\n"
        "`join_delta` frame per join change, byte for byte what a `fmotif "
        "serve`\n"
        "subscriber receives, then one `summary` line.\n"
        "\n"
        "--members=SPEC declares a heterogeneous fleet up front: a comma-\n"
        "separated list of member specs, `s` (one sliding window) or `x` "
        "(one\n"
        "cross-trajectory window pair, consuming the next two stream "
        "ids),\n"
        "each optionally suffixed `:E` to override --approx-eps for that\n"
        "member — e.g. --members=s,x:0.05,s:0.1. Rows (or files) feed "
        "stream\n"
        "ids in declaration order; ids past the declared set add default\n"
        "streams on the fly. Members a --state-dir already holds are not\n"
        "added again.\n"
        "\n"
        "--state-dir=DIR journals every engine call and rotates "
        "snapshots\n"
        "(every --checkpoint=N records); a restart recovers the fleet "
        "and\n"
        "resumes. SIGINT/SIGTERM end the feed cleanly: the summary is "
        "still\n"
        "flushed and the journal synced before exit.\n");
  } else if (command == "serve") {
    std::fprintf(
        stream,
        "usage: fmotif serve [--port=0] [--bind=127.0.0.1] [--window=512]\n"
        "       [--slide=32] [--xi=100] [--approx-eps=0] [--eps=M] "
        "[--reorder=K]\n"
        "       [--budget=K] [--state-dir=DIR] [--checkpoint=N] "
        "[--max-conns=64]\n"
        "       [--idle-timeout-ms=MS] [--max-runtime-ms=MS] [--json]\n"
        "       [--threads=N]\n"
        "\n"
        "Runs the fleet engine behind a TCP line protocol. Clients send "
        "one\n"
        "`stream,lat,lon[,timestamp]` row per line (the fleet stdin "
        "dialect;\n"
        "new ids add streams on the fly) plus commands `SUB "
        "reports|join|all`,\n"
        "`UNSUB`, `PING`, `STATS`, `QUIT`; the server pushes per-slide\n"
        "reports and ε-join deltas to subscribers as newline-delimited\n"
        "single-line JSON frames. `--port=0` picks a free port; the "
        "resolved\n"
        "address is printed to stderr as `listening on HOST:PORT`.\n"
        "\n"
        "The server is robustness-first: malformed, oversized, or torn\n"
        "lines answer with `error` frames and never kill the process; a\n"
        "slow subscriber loses oldest broadcast frames (counted and\n"
        "reported via `dropped` frames) and is evicted past a high-water\n"
        "mark; connections past --max-conns are shed with `error\n"
        "{code:\"busy\"}`; --idle-timeout-ms evicts silent peers.\n"
        "\n"
        "--state-dir=DIR journals every ingest and checkpoints on "
        "shutdown\n"
        "(rotating a snapshot every --checkpoint=N records); a restart\n"
        "recovers the fleet and resumes. SIGINT/SIGTERM drain "
        "gracefully:\n"
        "accepting stops, every subscriber queue is flushed, then the\n"
        "journal is checkpointed and synced. --max-runtime-ms drains\n"
        "automatically after a fixed runtime (0 = run until "
        "signalled).\n"
        "\n"
        "With --json, the run ends with one `summary` line on stdout, "
        "built\n"
        "from the same counter blocks as the `stats` frame.\n");
  } else if (command == "topk") {
    std::fprintf(
        stream,
        "usage: fmotif topk <file> [--k=5] [--xi=100] [--separation=xi]\n"
        "       [--approx-eps=0] [--json] [--threads=N]\n"
        "\n"
        "The k best motifs, at most one per candidate subset, pairwise\n"
        "separated by at least --separation in start-cell Chebyshev "
        "distance.\n"
        "--approx-eps=E relaxes every rank: the i-th reported distance is "
        "at\n"
        "most (1+E) times the i-th exact one.\n"
        "(`fmotif motif <file> --topk=N` is kept as a legacy alias.)\n");
  } else if (command == "join") {
    std::fprintf(
        stream,
        "usage: fmotif join <file> <file>... --eps=250 [--no-pruning]\n"
        "       [--grid] [--json] [--threads=N]\n"
        "\n"
        "DFD similarity self-join: every pair of input trajectories whose\n"
        "discrete Fréchet distance is <= eps meters (--threshold is an\n"
        "accepted alias for --eps). --grid generates candidates with a\n"
        "uniform grid index; --no-pruning forces every pair through the\n"
        "exact decision kernel.\n");
  } else if (command == "cluster") {
    std::fprintf(
        stream,
        "usage: fmotif cluster <file> [--window=100] [--stride=25]\n"
        "       [--eps=100] [--min-members=2] [--json]\n"
        "\n"
        "Greedy star-shaped clustering of sliding windows: every member\n"
        "window is within eps meters (DFD) of its cluster's reference\n"
        "window, members are pairwise non-overlapping.\n");
  } else if (command == "stats") {
    std::fprintf(stream,
                 "usage: fmotif stats <file>... [--json]\n"
                 "\n"
                 "One-pass descriptive statistics per input: path length, "
                 "sampling\n"
                 "periods, dropout events, geographic extent.\n");
  } else if (command == "simplify") {
    std::fprintf(
        stream,
        "usage: fmotif simplify <file> --tolerance=10 --out=<file> "
        "[--json]\n"
        "\n"
        "Douglas-Peucker simplification with the given tolerance in "
        "meters.\n"
        "The output format follows the --out extension (CSV, .geojson, "
        ".plt).\n");
  } else if (command == "gen") {
    std::fprintf(
        stream,
        "usage: fmotif gen [--kind=geolife|truck|baboon] [--n=5000] "
        "[--seed=42]\n"
        "       [--out=<file>] [--json]\n"
        "\n"
        "Generates a synthetic trajectory emulating one of the paper's "
        "three\n"
        "datasets. Deterministic per seed. Without --out, CSV rows go to\n"
        "stdout; with --out, the extension picks CSV/GeoJSON/PLT. --json\n"
        "(requires --out) prints a generation summary instead of data.\n");
  } else {
    return Usage(stream);
  }
  if (stream == stderr) {
    std::fprintf(stream, "\n%s", kGlobalFlagsHelp);
  }
  return stream == stdout ? kExitOk : kExitUsage;
}

int Fail(const fm::Status& status) {
  std::fprintf(stderr, "fmotif: %s\n", status.ToString().c_str());
  return kExitError;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Reads `path` in the format its extension names (PLT, GeoJSON, CSV).
fm::StatusOr<fm::Trajectory> LoadRaw(const std::string& path) {
  if (HasSuffix(path, ".plt")) return fm::ReadPlt(path);
  if (HasSuffix(path, ".geojson") || HasSuffix(path, ".json")) {
    return fm::ReadGeoJson(path);
  }
  return fm::ReadCsv(path);
}

/// Ingest: format by extension, then the optional global
/// --simplify-tolerance pass.
fm::StatusOr<fm::Trajectory> Load(const std::string& path,
                                  const fm::Flags& flags) {
  fm::StatusOr<fm::Trajectory> t = LoadRaw(path);
  if (!t.ok()) return t;
  if (flags.Has("simplify-tolerance")) {
    return SimplifyDouglasPeucker(t.value(),
                                  flags.GetDouble("simplify-tolerance", 0.0));
  }
  return t;
}

/// Egress: format by extension (CSV unless .geojson/.json/.plt).
fm::Status Save(const fm::Trajectory& t, const std::string& path) {
  if (HasSuffix(path, ".plt")) return fm::WritePlt(t, path);
  if (HasSuffix(path, ".geojson") || HasSuffix(path, ".json")) {
    return fm::WriteGeoJson(t, path);
  }
  return fm::WriteCsv(t, path);
}

const fm::GroundMetric& Metric(const fm::Flags& flags) {
  return flags.GetString("metric", "haversine") == "euclidean"
             ? fm::Euclidean()
             : fm::Haversine();
}

int Threads(const fm::Flags& flags) {
  return static_cast<int>(flags.GetInt("threads", 1));
}

/// Shared --approx-eps handling for every motif-reporting command. 0 (the
/// default) keeps the search exact; E > 0 allows the reported distance to
/// exceed the optimum by a factor of at most (1+E).
double ApproxEps(const fm::Flags& flags) {
  return flags.GetDouble("approx-eps", 0.0);
}

// The long-running commands (stream, fleet) convert SIGINT/SIGTERM into a
// clean end-of-feed: the ingest loop stops, the end-of-run summary is
// flushed, and a durable run commits its final journal sync — an operator
// interrupt must not lose the last window's report.
volatile std::sig_atomic_t g_interrupted = 0;

void OnInterrupt(int) { g_interrupted = 1; }

void InstallInterruptHandlers() {
  g_interrupted = 0;
  struct sigaction sa = {};
  sa.sa_handler = OnInterrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked stdin read returns EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Reads one feed line for the live-tail loops (stream/fleet stdin).
///
/// std::getline already delivers a final unterminated row (eofbit
/// without failbit), so EOF-without-newline ingests like any other row.
/// The subtle case is a read torn mid-line: the interrupt handlers
/// install without SA_RESTART, so SIGINT/SIGTERM during a blocked stdin
/// read makes the stream report end-of-feed with only the row's prefix
/// extracted — and a truncated coordinate ("39.1" torn from
/// "39.123456") parses as a valid, wrong point that a durable run would
/// journal. stdio keeps the distinction the iostream loses: a torn read
/// sets ferror(stdin), a real end of feed sets feof(stdin). Torn reads
/// resume until the row completes; once the interrupt flag is up the
/// torn prefix is dropped and the feed ends at the last complete row.
bool ReadFeedLine(std::istream& in, bool from_stdin, std::string* line) {
  line->clear();
  std::string chunk;
  while (true) {
    const bool got = static_cast<bool>(std::getline(in, chunk));
    line->append(chunk);
    if (got && !in.eof()) return true;  // complete, terminated row
    const bool torn =
        from_stdin && std::ferror(stdin) != 0 && std::feof(stdin) == 0;
    if (!torn) return got || !line->empty();  // real EOF (maybe final row)
    if (g_interrupted) return false;  // drop the torn prefix
    std::clearerr(stdin);             // EINTR: resume mid-row
    in.clear();
  }
}

/// The live-tail loop of stream and fleet: reads `in` row by row until
/// the feed ends or is interrupted, handing each point (with its row
/// number) to `ingest`. Multiplexed rows `stream,lat,lon[,timestamp]`
/// name their stream — the grammar lives in data/io.h, and `fmotif
/// serve` speaks the same dialect over TCP; plain `lat,lon[,timestamp]`
/// rows feed stream 0. A malformed first row is a header and skipped.
fm::Status TailFeed(
    std::istream& in, bool from_stdin, bool multiplexed,
    const std::function<fm::Status(const fm::FleetArrival&, std::size_t)>&
        ingest) {
  std::string line;
  std::size_t line_no = 0;
  while (!g_interrupted && ReadFeedLine(in, from_stdin, &line)) {
    ++line_no;
    fm::FleetArrival a;
    double lat = 0.0;
    double lon = 0.0;
    const fm::CsvRow row =
        multiplexed ? fm::ParseFleetCsvRow(line, &a.stream, &lat, &lon,
                                           &a.timestamp, &a.has_timestamp)
                    : fm::ParseCsvPointRow(line, &lat, &lon, &a.timestamp,
                                           &a.has_timestamp);
    switch (row) {
      case fm::CsvRow::kBlank:
        continue;
      case fm::CsvRow::kMalformed:
        if (line_no == 1) continue;  // header row
        return fm::Status::InvalidArgument(
            multiplexed ? "malformed fleet row " + std::to_string(line_no) +
                              " (expected stream,lat,lon[,timestamp])"
                        : "malformed CSV row " + std::to_string(line_no));
      case fm::CsvRow::kMalformedTimestamp:
        return fm::Status::InvalidArgument("malformed timestamp on row " +
                                           std::to_string(line_no));
      case fm::CsvRow::kPoint:
        break;
    }
    a.point = fm::LatLon(lat, lon);
    FM_RETURN_IF_ERROR(ingest(a, line_no));
  }
  return fm::Status::Ok();
}

/// Shared --state-dir/--checkpoint handling for stream and fleet.
fm::DurableOptions DurableConfig(const fm::Flags& flags) {
  fm::DurableOptions durable;
  durable.state_dir = flags.GetString("state-dir", "");
  durable.checkpoint_interval_records =
      static_cast<std::uint64_t>(flags.GetInt("checkpoint", 1024));
  return durable;
}

void PrintRecoveryNote(const fm::DurableFleet& fleet) {
  const fm::RecoveryInfo& r = fleet.recovery();
  if (!r.restored_snapshot && r.replayed_records == 0) return;
  std::fprintf(stderr,
               "recovered: snapshot=%s, replayed %llu journal records, "
               "%zu streams\n",
               r.restored_snapshot ? "yes" : "no",
               static_cast<unsigned long long>(r.replayed_records),
               fleet.stream_count());
}

/// The window flags of the streaming commands (stream, fleet, serve).
fm::StreamOptions StreamConfig(const fm::Flags& flags) {
  fm::StreamOptions options;
  options.window_length =
      static_cast<fm::Index>(flags.GetInt("window", options.window_length));
  options.slide_step =
      static_cast<fm::Index>(flags.GetInt("slide", options.slide_step));
  options.min_length_xi = static_cast<fm::Index>(flags.GetInt("xi", 100));
  options.threads = Threads(flags);
  options.approximation_epsilon = ApproxEps(flags);
  return options;
}

/// StreamConfig plus the multi-stream engine flags of fleet and serve.
fm::FleetOptions FleetConfig(const fm::Flags& flags) {
  fm::FleetOptions options;
  options.stream = StreamConfig(flags);
  if (flags.Has("eps")) options.join_epsilon = flags.GetDouble("eps", 250.0);
  options.reorder_capacity =
      static_cast<fm::Index>(flags.GetInt("reorder", 0));
  options.max_searches_per_drain =
      static_cast<int>(flags.GetInt("budget", 0));
  return options;
}

/// The engine stream and fleet run: a DurableFleet under --state-dir
/// (noting on stderr what recovery restored), else the plain engine.
fm::StatusOr<std::unique_ptr<fm::MotifFleetEngine>> OpenEngine(
    const fm::FleetOptions& options, const fm::Flags& flags) {
  fm::StatusOr<std::unique_ptr<fm::MotifFleetEngine>> opened =
      fm::OpenFleetEngine(options, Metric(flags), DurableConfig(flags));
  if (opened.ok()) {
    if (const auto* durable =
            dynamic_cast<const fm::DurableFleet*>(opened.value().get())) {
      PrintRecoveryNote(*durable);
    }
  }
  return opened;
}

/// End of feed (or interrupt): releases any reorder-buffered points,
/// then forces a durable engine's journal tail to stable storage — the
/// operator must never lose an already-reported window to an interrupt.
fm::StatusOr<fm::FleetReport> EndFeed(fm::MotifFleetEngine* engine) {
  fm::StatusOr<fm::FleetReport> flushed = engine->Flush();
  if (!flushed.ok()) return flushed;
  if (auto* durable = dynamic_cast<fm::DurableFleet*>(engine)) {
    FM_RETURN_IF_ERROR(durable->Sync());
  }
  return flushed;
}

/// The "options" keys of the stream, fleet and serve summaries, in
/// schema order.
void JsonEngineOptions(fm::JsonWriter* w, const fm::FleetOptions& options,
                       const fm::Flags& flags) {
  w->Key("window");
  w->Int(options.stream.window_length);
  w->Key("slide");
  w->Int(options.stream.slide_step);
  w->Key("xi");
  w->Int(options.stream.min_length_xi);
  w->Key("approx_eps");
  w->Double(options.stream.approximation_epsilon);
  w->Key("eps_m");
  w->Double(options.join_epsilon);
  w->Key("reorder");
  w->Int(options.reorder_capacity);
  w->Key("budget");
  w->Int(options.max_searches_per_drain);
  w->Key("metric");
  w->String(Metric(flags).Name());
  w->Key("threads");
  w->Int(options.stream.threads);
}

fm::MotifAlgorithm ParseAlgorithm(const std::string& name) {
  if (name == "brute") return fm::MotifAlgorithm::kBruteDp;
  if (name == "btm") return fm::MotifAlgorithm::kBtm;
  if (name == "gtm_star") return fm::MotifAlgorithm::kGtmStar;
  return fm::MotifAlgorithm::kGtm;
}

// --- JSON helpers -----------------------------------------------------------

void JsonRange(fm::JsonWriter* w, const fm::SubtrajectoryRef& ref) {
  w->BeginObject();
  w->Key("start");
  w->Int(ref.first);
  w->Key("end");
  w->Int(ref.last);
  w->EndObject();
}

void JsonMotifResult(fm::JsonWriter* w, const fm::Trajectory& s,
                     const fm::MotifResult& r) {
  w->BeginObject();
  w->Key("found");
  w->Bool(r.found);
  w->Key("distance_m");
  w->Double(r.distance);
  w->Key("first");
  JsonRange(w, r.first());
  w->Key("second");
  JsonRange(w, r.second());
  if (s.has_timestamps() && r.found) {
    w->Key("first_time_s");
    w->BeginArray();
    w->Double(s.timestamp(r.best.i));
    w->Double(s.timestamp(r.best.ie));
    w->EndArray();
    w->Key("second_time_s");
    w->BeginArray();
    w->Double(s.timestamp(r.best.j));
    w->Double(s.timestamp(r.best.je));
    w->EndArray();
  }
  w->EndObject();
}

void JsonMotifStats(fm::JsonWriter* w, const fm::MotifStats& stats) {
  w->BeginObject();
  w->Key("total_subsets");
  w->Int(stats.total_subsets);
  w->Key("pruned_subsets");
  w->Int(stats.pruned_total());
  w->Key("pruning_ratio");
  w->Double(stats.pruning_ratio());
  w->Key("subsets_evaluated");
  w->Int(stats.subsets_evaluated);
  w->Key("dfd_cells_computed");
  w->Int(stats.dfd_cells_computed);
  w->Key("precompute_seconds");
  w->Double(stats.precompute_seconds);
  w->Key("search_seconds");
  w->Double(stats.search_seconds);
  w->EndObject();
}

void PrintJson(const fm::JsonWriter& w) {
  std::fputs(w.str().c_str(), stdout);
}

// --- subcommands ------------------------------------------------------------

void PrintMotifText(const fm::Trajectory& s, const fm::MotifResult& r,
                    int rank) {
  std::printf("#%d  S[%d..%d] ~ S[%d..%d]  DFD=%.2f m", rank, r.best.i,
              r.best.ie, r.best.j, r.best.je, r.distance);
  if (s.has_timestamps()) {
    std::printf("  t1=[%.0f..%.0f] t2=[%.0f..%.0f]", s.timestamp(r.best.i),
                s.timestamp(r.best.ie), s.timestamp(r.best.j),
                s.timestamp(r.best.je));
  }
  std::printf("\n");
}

int RunMotif(const fm::Flags& flags) {
  if (flags.positional().size() != 2) return CommandUsage(stderr, "motif");
  const std::string& path = flags.positional()[1];
  fm::StatusOr<fm::Trajectory> t = Load(path, flags);
  if (!t.ok()) return Fail(t.status());

  fm::FindMotifOptions options;
  options.min_length_xi = static_cast<fm::Index>(flags.GetInt("xi", 100));
  options.group_size_tau = static_cast<fm::Index>(flags.GetInt("tau", 32));
  options.algorithm = ParseAlgorithm(flags.GetString("algorithm", "gtm"));
  options.threads = Threads(flags);
  options.approximation_epsilon = ApproxEps(flags);
  fm::MotifStats stats;
  fm::StatusOr<fm::MotifResult> r =
      FindMotif(t.value(), Metric(flags), options, &stats);
  if (!r.ok()) return Fail(r.status());

  if (flags.GetBool("json", false)) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("motif");
    w.Key("input");
    w.String(path);
    w.Key("points");
    w.Int(t.value().size());
    w.Key("options");
    w.BeginObject();
    w.Key("xi");
    w.Int(options.min_length_xi);
    w.Key("tau");
    w.Int(options.group_size_tau);
    w.Key("algorithm");
    w.String(AlgorithmName(options.algorithm));
    w.Key("approx_eps");
    w.Double(options.approximation_epsilon);
    w.Key("metric");
    w.String(Metric(flags).Name());
    w.Key("threads");
    w.Int(options.threads);
    w.EndObject();
    w.Key("result");
    JsonMotifResult(&w, t.value(), r.value());
    w.Key("stats");
    JsonMotifStats(&w, stats);
    w.EndObject();
    PrintJson(w);
  } else {
    PrintMotifText(t.value(), r.value(), 1);
    std::printf("%s\n", stats.ToString().c_str());
  }
  return kExitOk;
}

/// Prints one drain's output. Under --json each report and join delta is
/// the exact frame a serve `SUB all` subscriber receives (NDJSON, one
/// line per frame); otherwise one text line each.
void PrintFleetReport(const fm::FleetReport& report, bool json,
                      std::int64_t* slides) {
  *slides += static_cast<std::int64_t>(report.updates.size());
  for (const fm::FleetStreamUpdate& fu : report.updates) {
    if (json) {
      std::fputs(fm::SerializeReportFrame(fu).c_str(), stdout);
      continue;
    }
    const fm::StreamUpdate& u = fu.update;
    std::printf(
        "s%zu @%lld  S[%d..%d] ~ S[%d..%d]  DFD=%.2f m  %s%scells=%lld\n",
        fu.stream, static_cast<long long>(u.window_start), u.motif.best.i,
        u.motif.best.ie, u.motif.best.j, u.motif.best.je, u.motif.distance,
        u.seeded ? "seeded " : "cold ", u.carried ? "carried " : "",
        static_cast<long long>(u.stats.dfd_cells_computed));
  }
  if (!report.join_delta.empty()) {
    if (json) {
      std::fputs(fm::SerializeJoinFrame(report.join_delta).c_str(), stdout);
    } else {
      std::printf("join");
      for (const fm::JoinPair& p : report.join_delta.entered) {
        std::printf(" +s%zu~s%zu", p.li, p.ri);
      }
      for (const fm::JoinPair& p : report.join_delta.left) {
        std::printf(" -s%zu~s%zu", p.li, p.ri);
      }
      std::printf("\n");
    }
  }
  std::fflush(stdout);
}

/// One --members token: `s` (single sliding window) or `x` (cross-trajectory
/// window pair), optionally suffixed `:eps` to override --approx-eps for
/// that member alone.
struct FleetMemberSpec {
  bool cross = false;
  bool has_eps = false;
  double eps = 0.0;
};

fm::StatusOr<std::vector<FleetMemberSpec>> ParseFleetMembers(
    const std::string& spec) {
  std::vector<FleetMemberSpec> members;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (token.empty()) {
      return fm::Status::InvalidArgument("--members: empty member spec");
    }
    FleetMemberSpec m;
    if (token[0] == 'x') {
      m.cross = true;
    } else if (token[0] != 's') {
      return fm::Status::InvalidArgument(
          "--members: member spec must start with 's' or 'x': \"" + token +
          "\"");
    }
    if (token.size() > 1) {
      if (token[1] != ':' || token.size() == 2) {
        return fm::Status::InvalidArgument(
            "--members: expected s[:eps] or x[:eps], got \"" + token + "\"");
      }
      const std::string eps_text = token.substr(2);
      char* end = nullptr;
      m.eps = std::strtod(eps_text.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(m.eps >= 0.0)) {
        return fm::Status::InvalidArgument(
            "--members: malformed eps in \"" + token + "\"");
      }
      m.has_eps = true;
    }
    members.push_back(m);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  if (members.empty()) {
    return fm::Status::InvalidArgument("--members: no member specs");
  }
  return members;
}

/// Opens the `summary` line that ends every streaming command's --json
/// output.
void BeginSummary(fm::JsonWriter* w, const char* command) {
  w->BeginObject();
  w->Key("type");
  w->String("summary");
  w->Key("command");
  w->String(command);
}

/// stream and fleet: one engine fed from files or a stdin tail. `stream`
/// is a one-member fleet configured by StreamConfig alone whose stdin
/// carries plain `lat,lon[,timestamp]` rows; `fleet -` multiplexes
/// stdin by stream id.
int RunFleet(const fm::Flags& flags) {
  const std::string& command = flags.positional()[0];
  const bool single = command == "stream";
  if (flags.positional().size() < 2 ||
      (single && flags.positional().size() != 2)) {
    return CommandUsage(stderr, command);
  }
  const bool json = flags.GetBool("json", false);
  const bool from_stdin =
      flags.positional().size() == 2 && flags.positional()[1] == "-";
  InstallInterruptHandlers();

  fm::FleetOptions options;
  if (single) {
    options.stream = StreamConfig(flags);
  } else {
    options = FleetConfig(flags);
  }
  fm::StatusOr<std::unique_ptr<fm::MotifFleetEngine>> opened =
      OpenEngine(options, flags);
  if (!opened.ok()) return Fail(opened.status());
  fm::MotifFleetEngine& engine = *opened.value();

  // --members pre-registers a heterogeneous fleet (per-member ε, cross
  // pairs). Members a state dir already recovered are not added again.
  const std::string members_spec =
      single ? "" : flags.GetString("members", "");
  if (!members_spec.empty()) {
    fm::StatusOr<std::vector<FleetMemberSpec>> members =
        ParseFleetMembers(members_spec);
    if (!members.ok()) return Fail(members.status());
    for (std::size_t k = engine.member_count(); k < members.value().size();
         ++k) {
      const FleetMemberSpec& m = members.value()[k];
      fm::StreamOptions member_options = options.stream;
      if (m.has_eps) member_options.approximation_epsilon = m.eps;
      const fm::Status added =
          m.cross ? engine.AddCrossPair(member_options).status()
                  : engine.AddStream(member_options).status();
      if (!added.ok()) return Fail(added);
    }
  }

  std::int64_t slides = 0;
  if (from_stdin) {
    // Live tail: one row per line; multiplexed `stream,lat,lon[,ts]` rows
    // register new stream ids on the fly.
    constexpr std::size_t kMaxStreams = 4096;
    const fm::Status fed = TailFeed(
        std::cin, /*from_stdin=*/true, /*multiplexed=*/!single,
        [&](const fm::FleetArrival& a, std::size_t line_no) {
          if (a.stream >= kMaxStreams) {
            return fm::Status::InvalidArgument(
                "fleet stream id out of range on row " +
                std::to_string(line_no));
          }
          while (a.stream >= engine.stream_count()) {
            FM_RETURN_IF_ERROR(engine.AddStream().status());
          }
          fm::StatusOr<fm::FleetReport> report = engine.Ingest({a});
          if (!report.ok()) return report.status();
          PrintFleetReport(report.value(), json, &slides);
          return fm::Status::Ok();
        });
    if (!fed.ok()) return Fail(fed);
  } else {
    // One file per stream, replayed round-robin through one arrival loop.
    // A recovered state directory already has its streams registered, so
    // only the missing ones are added.
    std::vector<fm::Trajectory> streams;
    for (std::size_t k = 1; k < flags.positional().size(); ++k) {
      fm::StatusOr<fm::Trajectory> t = Load(flags.positional()[k], flags);
      if (!t.ok()) return Fail(t.status());
      while (engine.stream_count() < k) {
        const fm::StatusOr<std::size_t> added = engine.AddStream();
        if (!added.ok()) return Fail(added.status());
      }
      streams.push_back(std::move(t).value());
    }
    fm::Index longest = 0;
    for (const fm::Trajectory& t : streams) {
      longest = std::max(longest, t.size());
    }
    // One Ingest per slide period (slide_step round-robin rounds): the
    // engine appends the whole chunk in one tight loop and drains due
    // searches once per chunk — which is what lets --budget coalesce
    // backlogged windows instead of draining after every single point.
    // Unbudgeted reports are identical either way (the parity guard
    // runs due searches before a window slides further).
    const fm::Index chunk = options.stream.slide_step;
    for (fm::Index k0 = 0; !g_interrupted && k0 < longest; k0 += chunk) {
      std::vector<fm::FleetArrival> batch;
      for (fm::Index k = k0; k < std::min(longest, k0 + chunk); ++k) {
        for (std::size_t s = 0; s < streams.size(); ++s) {
          if (k >= streams[s].size()) continue;
          fm::FleetArrival arrival;
          arrival.stream = s;
          arrival.point = streams[s][k];
          if (streams[s].has_timestamps()) {
            arrival.has_timestamp = true;
            arrival.timestamp = streams[s].timestamp(k);
          }
          batch.push_back(arrival);
        }
      }
      fm::StatusOr<fm::FleetReport> report = engine.Ingest(batch);
      if (!report.ok()) return Fail(report.status());
      PrintFleetReport(report.value(), json, &slides);
    }
  }
  fm::StatusOr<fm::FleetReport> flushed = EndFeed(&engine);
  if (!flushed.ok()) return Fail(flushed.status());
  PrintFleetReport(flushed.value(), json, &slides);
  if (g_interrupted) {
    std::fprintf(stderr, "interrupted: flushing summary\n");
  }

  const fm::FleetStats stats = engine.stats();
  const fm::IncrementalJoinStats* join = engine.join_stats();
  if (json) {
    fm::JsonWriter w(fm::JsonStyle::kCompact);
    BeginSummary(&w, command.c_str());
    if (flags.positional().size() == 2) {
      w.Key("input");
      w.String(flags.positional()[1]);
    }
    w.Key("options");
    w.BeginObject();
    JsonEngineOptions(&w, options, flags);
    w.EndObject();
    w.Key("members");
    w.Int(static_cast<std::int64_t>(engine.member_count()));
    w.Key("slides");
    w.Int(slides);
    fm::WriteFleetStats(&w, stats);
    if (join != nullptr) {
      w.Key("join");
      w.BeginObject();
      w.Key("pairs_reverified");
      w.Int(join->pairs_reverified);
      w.Key("verdicts_carried");
      w.Int(join->verdicts_carried);
      w.Key("entered_total");
      w.Int(join->entered_total);
      w.Key("left_total");
      w.Int(join->left_total);
      w.Key("current_matches");
      w.Int(static_cast<std::int64_t>(
          engine.CurrentJoinMatches().size()));
      w.EndObject();
    }
    if (const auto* durable = dynamic_cast<const fm::DurableFleet*>(&engine)) {
      fm::WriteDurable(&w, flags.GetString("state-dir", ""), *durable);
    }
    if (g_interrupted) {
      w.Key("interrupted");
      w.Bool(true);
    }
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf(
        "%lld streams, %lld points, %lld slides (%lld seeded, %lld "
        "coalesced), %lld reordered, %lld late-dropped, %lld DFD cells\n",
        static_cast<long long>(stats.streams),
        static_cast<long long>(stats.points_ingested),
        static_cast<long long>(slides),
        static_cast<long long>(stats.seeded_searches),
        static_cast<long long>(stats.coalesced_slides),
        static_cast<long long>(stats.reordered),
        static_cast<long long>(stats.late_dropped),
        static_cast<long long>(stats.dfd_cells_computed));
    if (join != nullptr) {
      std::printf(
          "join: %lld reverified, %lld carried, +%lld -%lld, %zu current\n",
          static_cast<long long>(join->pairs_reverified),
          static_cast<long long>(join->verdicts_carried),
          static_cast<long long>(join->entered_total),
          static_cast<long long>(join->left_total),
          engine.CurrentJoinMatches().size());
    }
  }
  return kExitOk;
}

int RunServe(const fm::Flags& flags) {
  if (flags.positional().size() != 1) return CommandUsage(stderr, "serve");
  const bool json = flags.GetBool("json", false);
  InstallInterruptHandlers();

  fm::ServeOptions options;
  options.fleet = FleetConfig(flags);
  options.durable = DurableConfig(flags);
  options.limits.max_connections = static_cast<int>(
      flags.GetInt("max-conns", options.limits.max_connections));
  options.limits.idle_timeout_ms =
      flags.GetInt("idle-timeout-ms", options.limits.idle_timeout_ms);

  fm::StatusOr<fm::MotifServer> server =
      fm::MotifServer::Create(options, Metric(flags));
  if (!server.ok()) return Fail(server.status());
  if (server.value().durable() != nullptr) {
    PrintRecoveryNote(*server.value().durable());
  }

  const std::string bind = flags.GetString("bind", "127.0.0.1");
  fm::StatusOr<fm::PosixListener> listener =
      fm::PosixListener::Create(bind, static_cast<int>(
                                          flags.GetInt("port", 0)));
  if (!listener.ok()) return Fail(listener.status());
  // Machine-parsable: tests and scripts discover a --port=0 allocation
  // from this line.
  std::fprintf(stderr, "listening on %s:%d\n", bind.c_str(),
               listener.value().port());
  std::fflush(stderr);

  fm::ServeLoopOptions loop;
  loop.stop = &g_interrupted;
  loop.max_runtime_ms = flags.GetInt("max-runtime-ms", 0);
  const fm::Status ran =
      fm::RunServeLoop(server.value(), listener.value(), loop);
  if (!ran.ok()) return Fail(ran);
  const fm::Status shut = server.value().Shutdown();
  if (!shut.ok()) return Fail(shut);

  const fm::ServeStats& s = server.value().stats();
  const fm::FleetStats fleet = server.value().fleet_stats();
  if (json) {
    fm::JsonWriter w(fm::JsonStyle::kCompact);
    BeginSummary(&w, "serve");
    w.Key("options");
    w.BeginObject();
    JsonEngineOptions(&w, options.fleet, flags);
    w.Key("max_conns");
    w.Int(options.limits.max_connections);
    w.EndObject();
    fm::WriteServeStats(&w, s);
    fm::WriteFleetStats(&w, fleet);
    if (server.value().durable() != nullptr) {
      fm::WriteDurable(&w, options.durable.state_dir,
                       *server.value().durable());
    }
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf(
        "%lld conns (%lld shed), %lld lines, %lld points, %lld streams, "
        "%lld frames pushed (%lld dropped), %lld parse errors\n",
        static_cast<long long>(s.accepted),
        static_cast<long long>(s.rejected_busy),
        static_cast<long long>(s.lines_in),
        static_cast<long long>(s.points_ingested),
        static_cast<long long>(fleet.streams),
        static_cast<long long>(s.frames_pushed),
        static_cast<long long>(s.frames_dropped),
        static_cast<long long>(s.parse_errors));
  }
  return kExitOk;
}

int RunTopK(const fm::Flags& flags) {
  if (flags.positional().size() != 2) return CommandUsage(stderr, "topk");
  const std::string& path = flags.positional()[1];
  fm::StatusOr<fm::Trajectory> t = Load(path, flags);
  if (!t.ok()) return Fail(t.status());

  fm::TopKOptions options;
  // --topk is honored as an alias for --k: the pre-subcommand CLI spelled
  // this query `fmotif motif <file> --topk=N`, and main() still routes
  // that invocation here.
  options.k = static_cast<int>(flags.GetInt("k", flags.GetInt("topk", 5)));
  options.motif.min_length_xi = static_cast<fm::Index>(flags.GetInt("xi", 100));
  options.motif.threads = Threads(flags);
  options.approximation_epsilon = ApproxEps(flags);
  options.min_start_separation = static_cast<fm::Index>(
      flags.GetInt("separation", options.motif.min_length_xi));
  fm::MotifStats stats;
  fm::StatusOr<std::vector<fm::MotifResult>> r =
      TopKMotifs(t.value(), Metric(flags), options, &stats);
  if (!r.ok()) return Fail(r.status());

  if (flags.GetBool("json", false)) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("topk");
    w.Key("input");
    w.String(path);
    w.Key("points");
    w.Int(t.value().size());
    w.Key("options");
    w.BeginObject();
    w.Key("k");
    w.Int(options.k);
    w.Key("xi");
    w.Int(options.motif.min_length_xi);
    w.Key("separation");
    w.Int(options.min_start_separation);
    w.Key("approx_eps");
    w.Double(options.approximation_epsilon);
    w.Key("metric");
    w.String(Metric(flags).Name());
    w.Key("threads");
    w.Int(options.motif.threads);
    w.EndObject();
    w.Key("results");
    w.BeginArray();
    for (const fm::MotifResult& m : r.value()) {
      JsonMotifResult(&w, t.value(), m);
    }
    w.EndArray();
    w.Key("stats");
    JsonMotifStats(&w, stats);
    w.EndObject();
    PrintJson(w);
  } else {
    int rank = 1;
    for (const fm::MotifResult& m : r.value()) {
      PrintMotifText(t.value(), m, rank++);
    }
  }
  return kExitOk;
}

int RunCross(const fm::Flags& flags) {
  if (flags.positional().size() != 3) return CommandUsage(stderr, "cross");
  fm::StatusOr<fm::Trajectory> a = Load(flags.positional()[1], flags);
  if (!a.ok()) return Fail(a.status());
  fm::StatusOr<fm::Trajectory> b = Load(flags.positional()[2], flags);
  if (!b.ok()) return Fail(b.status());

  fm::FindMotifOptions options;
  options.min_length_xi = static_cast<fm::Index>(flags.GetInt("xi", 100));
  options.group_size_tau = static_cast<fm::Index>(flags.GetInt("tau", 32));
  options.algorithm = ParseAlgorithm(flags.GetString("algorithm", "gtm"));
  options.threads = Threads(flags);
  options.approximation_epsilon = ApproxEps(flags);
  fm::MotifStats stats;
  fm::StatusOr<fm::MotifResult> r =
      FindMotif(a.value(), b.value(), Metric(flags), options, &stats);
  if (!r.ok()) return Fail(r.status());
  const fm::MotifResult& m = r.value();

  if (flags.GetBool("json", false)) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("cross");
    w.Key("inputs");
    w.BeginArray();
    w.String(flags.positional()[1]);
    w.String(flags.positional()[2]);
    w.EndArray();
    w.Key("options");
    w.BeginObject();
    w.Key("xi");
    w.Int(options.min_length_xi);
    w.Key("tau");
    w.Int(options.group_size_tau);
    w.Key("algorithm");
    w.String(AlgorithmName(options.algorithm));
    w.Key("approx_eps");
    w.Double(options.approximation_epsilon);
    w.Key("metric");
    w.String(Metric(flags).Name());
    w.Key("threads");
    w.Int(options.threads);
    w.EndObject();
    w.Key("result");
    w.BeginObject();
    w.Key("found");
    w.Bool(m.found);
    w.Key("distance_m");
    w.Double(m.distance);
    w.Key("first");
    JsonRange(&w, m.first());
    w.Key("second");
    JsonRange(&w, m.second());
    w.EndObject();
    w.Key("stats");
    JsonMotifStats(&w, stats);
    w.EndObject();
    PrintJson(w);
  } else {
    std::printf("A[%d..%d] ~ B[%d..%d]  DFD=%.2f m\n", m.best.i, m.best.ie,
                m.best.j, m.best.je, m.distance);
  }
  return kExitOk;
}

int RunJoin(const fm::Flags& flags) {
  if (flags.positional().size() < 3) return CommandUsage(stderr, "join");
  std::vector<fm::Trajectory> trajectories;
  for (std::size_t k = 1; k < flags.positional().size(); ++k) {
    fm::StatusOr<fm::Trajectory> t = Load(flags.positional()[k], flags);
    if (!t.ok()) return Fail(t.status());
    trajectories.push_back(std::move(t).value());
  }
  fm::JoinOptions options;
  // --eps is the join radius ε; --threshold stays as the historical alias.
  options.threshold =
      flags.GetDouble("eps", flags.GetDouble("threshold", 250.0));
  options.use_pruning = !flags.GetBool("no-pruning", false);
  options.use_grid_index = flags.GetBool("grid", false);
  options.threads = Threads(flags);
  fm::JoinStats stats;
  fm::StatusOr<std::vector<fm::JoinPair>> matches =
      DfdSelfJoin(trajectories, Metric(flags), options, &stats);
  if (!matches.ok()) return Fail(matches.status());

  if (flags.GetBool("json", false)) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("join");
    w.Key("inputs");
    w.BeginArray();
    for (std::size_t k = 1; k < flags.positional().size(); ++k) {
      w.String(flags.positional()[k]);
    }
    w.EndArray();
    w.Key("options");
    w.BeginObject();
    w.Key("eps_m");
    w.Double(options.threshold);
    w.Key("pruning");
    w.Bool(options.use_pruning);
    w.Key("grid_index");
    w.Bool(options.use_grid_index);
    w.Key("metric");
    w.String(Metric(flags).Name());
    w.Key("threads");
    w.Int(options.threads);
    w.EndObject();
    w.Key("matches");
    w.BeginArray();
    for (const fm::JoinPair& p : matches.value()) {
      w.BeginObject();
      w.Key("left");
      w.String(flags.positional()[p.li + 1]);
      w.Key("right");
      w.String(flags.positional()[p.ri + 1]);
      w.EndObject();
    }
    w.EndArray();
    w.Key("stats");
    w.BeginObject();
    w.Key("pairs_total");
    w.Int(stats.pairs_total);
    w.Key("pruned_bbox");
    w.Int(stats.pruned_bbox);
    w.Key("pruned_endpoints");
    w.Int(stats.pruned_endpoints);
    w.Key("pruned_hausdorff");
    w.Int(stats.pruned_hausdorff);
    w.Key("decided_exact");
    w.Int(stats.decided_exact);
    w.Key("matched");
    w.Int(stats.matched);
    w.EndObject();
    w.EndObject();
    PrintJson(w);
  } else {
    for (const fm::JoinPair& p : matches.value()) {
      std::printf("%s ~ %s\n", flags.positional()[p.li + 1].c_str(),
                  flags.positional()[p.ri + 1].c_str());
    }
    std::printf("%s\n", stats.ToString().c_str());
  }
  return kExitOk;
}

int RunCluster(const fm::Flags& flags) {
  if (flags.positional().size() != 2) return CommandUsage(stderr, "cluster");
  const std::string& path = flags.positional()[1];
  fm::StatusOr<fm::Trajectory> t = Load(path, flags);
  if (!t.ok()) return Fail(t.status());

  fm::ClusterOptions options;
  options.window_length =
      static_cast<fm::Index>(flags.GetInt("window", options.window_length));
  options.stride = static_cast<fm::Index>(flags.GetInt("stride", options.stride));
  options.threshold_m = flags.GetDouble("eps", options.threshold_m);
  options.min_members =
      static_cast<int>(flags.GetInt("min-members", options.min_members));
  fm::ClusterStats stats;
  fm::StatusOr<std::vector<fm::SubtrajectoryCluster>> clusters =
      ClusterSubtrajectories(t.value(), Metric(flags), options, &stats);
  if (!clusters.ok()) return Fail(clusters.status());

  if (flags.GetBool("json", false)) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("cluster");
    w.Key("input");
    w.String(path);
    w.Key("points");
    w.Int(t.value().size());
    w.Key("options");
    w.BeginObject();
    w.Key("window");
    w.Int(options.window_length);
    w.Key("stride");
    w.Int(options.stride);
    w.Key("eps_m");
    w.Double(options.threshold_m);
    w.Key("min_members");
    w.Int(options.min_members);
    w.Key("metric");
    w.String(Metric(flags).Name());
    w.EndObject();
    w.Key("clusters");
    w.BeginArray();
    for (const fm::SubtrajectoryCluster& c : clusters.value()) {
      w.BeginObject();
      w.Key("reference");
      JsonRange(&w, c.reference);
      w.Key("members");
      w.BeginArray();
      for (const fm::SubtrajectoryRef& m : c.members) {
        JsonRange(&w, m);
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("stats");
    w.BeginObject();
    w.Key("window_pairs");
    w.Int(stats.window_pairs);
    w.Key("pruned_endpoints");
    w.Int(stats.pruned_endpoints);
    w.Key("decided_exact");
    w.Int(stats.decided_exact);
    w.EndObject();
    w.EndObject();
    PrintJson(w);
  } else {
    int rank = 1;
    for (const fm::SubtrajectoryCluster& c : clusters.value()) {
      std::printf("#%d  reference S[%d..%d], %d members:", rank++,
                  c.reference.first, c.reference.last, c.size());
      for (const fm::SubtrajectoryRef& m : c.members) {
        std::printf(" [%d..%d]", m.first, m.last);
      }
      std::printf("\n");
    }
    std::printf("%s\n", stats.ToString().c_str());
  }
  return kExitOk;
}

int RunStats(const fm::Flags& flags) {
  if (flags.positional().size() < 2) return CommandUsage(stderr, "stats");
  const bool json = flags.GetBool("json", false);
  fm::JsonWriter w;
  if (json) {
    w.BeginObject();
    w.Key("command");
    w.String("stats");
    w.Key("trajectories");
    w.BeginArray();
  }
  for (std::size_t k = 1; k < flags.positional().size(); ++k) {
    fm::StatusOr<fm::Trajectory> t = Load(flags.positional()[k], flags);
    if (!t.ok()) return Fail(t.status());
    fm::StatusOr<fm::TrajectorySummary> s =
        Summarize(t.value(), Metric(flags));
    if (!s.ok()) return Fail(s.status());
    if (json) {
      const fm::TrajectorySummary& sum = s.value();
      w.BeginObject();
      w.Key("file");
      w.String(flags.positional()[k]);
      w.Key("points");
      w.Int(sum.num_points);
      w.Key("path_length_m");
      w.Double(sum.path_length_m);
      w.Key("net_displacement_m");
      w.Double(sum.net_displacement_m);
      w.Key("duration_s");
      w.Double(sum.duration_s);
      w.Key("mean_speed_mps");
      w.Double(sum.mean_speed_mps);
      w.Key("median_period_s");
      w.Double(sum.median_period_s);
      w.Key("dropout_events");
      w.Int(sum.dropout_events);
      w.EndObject();
    } else {
      std::printf("== %s ==\n%s\n", flags.positional()[k].c_str(),
                  s.value().ToString().c_str());
    }
  }
  if (json) {
    w.EndArray();
    w.EndObject();
    PrintJson(w);
  }
  return kExitOk;
}

int RunSimplify(const fm::Flags& flags) {
  if (flags.positional().size() != 2 || !flags.Has("out")) {
    return CommandUsage(stderr, "simplify");
  }
  const std::string& path = flags.positional()[1];
  // Deliberately LoadRaw, without the global --simplify-tolerance pass:
  // this command's own --tolerance is the simplification.
  fm::StatusOr<fm::Trajectory> t = LoadRaw(path);
  if (!t.ok()) return Fail(t.status());
  const double tolerance = flags.GetDouble("tolerance", 10.0);
  fm::StatusOr<fm::Trajectory> simplified =
      SimplifyDouglasPeucker(t.value(), tolerance);
  if (!simplified.ok()) return Fail(simplified.status());
  const std::string out_path = flags.GetString("out", "");
  const fm::Status written = Save(simplified.value(), out_path);
  if (!written.ok()) return Fail(written);

  if (flags.GetBool("json", false)) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("simplify");
    w.Key("input");
    w.String(path);
    w.Key("output");
    w.String(out_path);
    w.Key("tolerance_m");
    w.Double(tolerance);
    w.Key("points_before");
    w.Int(t.value().size());
    w.Key("points_after");
    w.Int(simplified.value().size());
    w.EndObject();
    PrintJson(w);
  } else {
    std::printf("%d -> %d points\n", t.value().size(),
                simplified.value().size());
  }
  return kExitOk;
}

int RunGen(const fm::Flags& flags) {
  if (flags.positional().size() != 1) return CommandUsage(stderr, "gen");
  const std::string kind_name = flags.GetString("kind", "geolife");
  fm::DatasetKind kind;
  if (kind_name == "geolife") {
    kind = fm::DatasetKind::kGeoLifeLike;
  } else if (kind_name == "truck") {
    kind = fm::DatasetKind::kTruckLike;
  } else if (kind_name == "baboon") {
    kind = fm::DatasetKind::kBaboonLike;
  } else {
    std::fprintf(stderr, "fmotif: unknown --kind=%s (geolife|truck|baboon)\n",
                 kind_name.c_str());
    return kExitUsage;
  }
  fm::DatasetOptions options;
  options.length = static_cast<fm::Index>(flags.GetInt("n", 5000));
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  fm::StatusOr<fm::Trajectory> t = fm::MakeDataset(kind, options);
  if (!t.ok()) return Fail(t.status());

  const std::string out_path = flags.GetString("out", "");
  const bool json = flags.GetBool("json", false);
  if (json && out_path.empty()) {
    std::fprintf(stderr, "fmotif: gen --json requires --out "
                         "(data and JSON would interleave on stdout)\n");
    return kExitUsage;
  }
  if (!out_path.empty()) {
    const fm::Status written = Save(t.value(), out_path);
    if (!written.ok()) return Fail(written);
  } else {
    // CSV to stdout, identical to WriteCsv's file format (and like it,
    // locale-independent).
    const bool timed = t.value().has_timestamps();
    std::printf(timed ? "lat,lon,timestamp\n" : "lat,lon\n");
    for (fm::Index i = 0; i < t.value().size(); ++i) {
      std::string row = fm::DoubleToStringFixed(t.value()[i].lat(), 8) + "," +
                        fm::DoubleToStringFixed(t.value()[i].lon(), 8);
      if (timed) {
        row += "," + fm::DoubleToStringFixed(t.value().timestamp(i), 3);
      }
      std::printf("%s\n", row.c_str());
    }
  }

  if (json) {
    fm::JsonWriter w;
    w.BeginObject();
    w.Key("command");
    w.String("gen");
    w.Key("kind");
    w.String(DatasetName(kind));
    w.Key("n");
    w.Int(t.value().size());
    w.Key("seed");
    w.Int(static_cast<std::int64_t>(options.seed));
    w.Key("output");
    w.String(out_path);
    w.EndObject();
    PrintJson(w);
  } else if (!out_path.empty()) {
    std::printf("wrote %d points to %s\n", t.value().size(),
                out_path.c_str());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  fm::Flags flags;
  const fm::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fmotif: %s\n", parsed.ToString().c_str());
    return kExitUsage;
  }
  if (flags.positional().empty()) {
    return Usage(flags.GetBool("help", false) ? stdout : stderr);
  }
  const std::string& command = flags.positional()[0];
  if (flags.GetBool("help", false)) return CommandUsage(stdout, command);
  if (command == "motif") {
    // Back-compat: `motif --topk=N` predates the topk subcommand.
    if (flags.GetInt("topk", 1) > 1) return RunTopK(flags);
    return RunMotif(flags);
  }
  if (command == "stream" || command == "fleet") return RunFleet(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "topk") return RunTopK(flags);
  if (command == "cross") return RunCross(flags);
  if (command == "join") return RunJoin(flags);
  if (command == "cluster") return RunCluster(flags);
  if (command == "stats") return RunStats(flags);
  if (command == "simplify") return RunSimplify(flags);
  if (command == "gen") return RunGen(flags);
  std::fprintf(stderr, "fmotif: unknown command \"%s\"\n\n", command.c_str());
  return Usage(stderr);
}
