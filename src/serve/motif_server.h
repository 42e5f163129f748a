#ifndef FRECHET_MOTIF_SERVE_MOTIF_SERVER_H_
#define FRECHET_MOTIF_SERVE_MOTIF_SERVER_H_

/// Transport-independent core of `fmotif serve`: protocol, routing,
/// backpressure, admission, and drain — everything except the event
/// loop itself.
///
/// The server is single-threaded and **caller-driven**: a transport
/// (serve/serve_loop.h in production, the fault harness in tests) owns
/// readiness detection and calls `OnAccept` / `OnReadable` /
/// `OnWritable` / `Tick`, always passing the current monotonic time in
/// milliseconds. The core never reads a clock and never touches an fd —
/// all byte I/O goes through the `ServeSocket` seam — so every timeout,
/// partial read, EAGAIN storm, and mid-frame reset is reproducible in a
/// unit test.
///
/// ## Wire protocol (see docs/ARCHITECTURE.md "Serve tier")
///
/// Inbound: UTF-8 lines, LF or CRLF terminated.
///   * `stream,lat,lon[,ts]` — one ingest point (fleet CSV dialect).
///   * `SUB reports|join|all`, `UNSUB`, `PING`, `STATS`, `QUIT` —
///     commands (case-insensitive verb).
/// Outbound: newline-delimited single-line JSON frames, each carrying a
/// `"type"` discriminator: `hello`, `subscribed`, `unsubscribed`,
/// `pong`, `stats`, `report`, `join_delta`, `dropped`, `error`, `bye`.
///
/// ## Robustness policy
///
///  * **Tolerant parsing.** Partial lines wait for more bytes; lines
///    over `max_line_bytes` are swallowed to the next newline and
///    answered with an `error` frame; garbage rows get `error` frames
///    with a line number; none of it disturbs other connections.
///  * **Bounded write queues.** Broadcast frames (`report`,
///    `join_delta`) are droppable: when a subscriber's queue would pass
///    `subscriber_queue_bytes`, the oldest droppable frames are dropped
///    and counted, and the subscriber learns via a `dropped` frame
///    before its next delivered broadcast. A queue that would still
///    pass `subscriber_queue_high_water_bytes` (reply frames are never
///    dropped) evicts the connection — a slow subscriber can never
///    stall ingest or grow memory without bound.
///  * **Admission + shedding.** Past `max_connections` an accepted
///    socket gets one best-effort `error {code:"busy"}` write and is
///    closed. A connection whose unparsed inbound buffer passes
///    `max_ingest_pending_bytes` is evicted. Reads are capped per
///    readiness call for fairness. Idle connections (no bytes read for
///    `idle_timeout_ms`) are evicted on `Tick`.
///  * **Graceful drain.** `BeginDrain` stops accepting, queues `bye`
///    frames, and flushes each queue until empty or
///    `drain_grace_ms` passes; `Shutdown` then checkpoints through
///    `DurableFleet` when a state dir is configured.
///
/// The report stream a surviving subscriber observes is bit-identical
/// to a batch oracle (`MotifFleetEngine` fed the same released points)
/// serialized with the same frame functions — the serve-tier extension
/// of the repo-wide parity contract, enforced by tests/serve_fault_test.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durable/durable_fleet.h"
#include "geo/metric.h"
#include "serve/serve_socket.h"
#include "stream/motif_fleet_engine.h"
#include "util/status.h"

namespace frechet_motif {

/// Admission, shedding, and backpressure knobs. The defaults suit the
/// CLI; tests shrink them to force every policy branch.
struct ServeLimits {
  /// Admission: connections past this are answered `busy` and closed.
  int max_connections = 64;

  /// Protocol lines longer than this are swallowed to the next newline
  /// and answered with an `error {code:"oversized"}` frame.
  std::size_t max_line_bytes = 4096;

  /// Eviction bound on a connection's unparsed inbound bytes (a peer
  /// streaming garbage without newlines).
  std::size_t max_ingest_pending_bytes = 1 << 20;

  /// Per-readiness-call read cap (fairness across connections).
  std::size_t max_read_bytes_per_call = 64 * 1024;

  /// Soft cap on a connection's outbound queue: past it, oldest
  /// droppable (broadcast) frames are dropped and counted.
  std::size_t subscriber_queue_bytes = 256 * 1024;

  /// Hard cap: a queue that would still pass this evicts the
  /// connection (`bye {reason:"slow"}`, best effort).
  std::size_t subscriber_queue_high_water_bytes = 1 << 20;

  /// Evict a connection after this long without reading a byte from it
  /// (0 disables the idle timeout).
  std::int64_t idle_timeout_ms = 0;

  /// How long a closing connection may take to flush its queue before
  /// being force-closed (drain, QUIT, eviction byes).
  std::int64_t drain_grace_ms = 5000;

  /// Streams are auto-created on first reference, up to this id bound.
  std::size_t max_streams = 4096;
};

/// Full serve-tier configuration.
struct ServeOptions {
  FleetOptions fleet;
  ServeLimits limits;

  /// Durability: empty state_dir = plain in-memory engine; otherwise
  /// every ingest is journaled and `Shutdown` checkpoints (see
  /// durable/durable_fleet.h).
  DurableOptions durable;

  bool durable_enabled() const { return !durable.state_dir.empty(); }
};

/// Server-level counters (the engine keeps its own FleetStats).
struct ServeStats {
  std::int64_t accepted = 0;
  std::int64_t rejected_busy = 0;
  std::int64_t evicted_slow = 0;
  std::int64_t evicted_idle = 0;
  std::int64_t evicted_pending_overflow = 0;
  std::int64_t closed_by_peer = 0;
  std::int64_t io_errors = 0;
  std::int64_t lines_in = 0;
  std::int64_t points_ingested = 0;
  std::int64_t parse_errors = 0;
  std::int64_t oversized_lines = 0;
  std::int64_t engine_errors = 0;
  std::int64_t frames_pushed = 0;
  std::int64_t frames_dropped = 0;
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
};

class JsonWriter;

/// Serializes one slide report / join delta as a single-line JSON frame
/// (terminating '\n' included). These are the streaming tier's one
/// output format: `fmotif stream|fleet --json` prints the same frames a
/// `SUB all` subscriber receives, and parity tests render the batch
/// oracle's reports with the identical bytes.
std::string SerializeReportFrame(const FleetStreamUpdate& update);
std::string SerializeJoinFrame(const JoinDelta& delta);

/// The counter blocks of the `stats` frame and of the CLI's `summary`
/// line, so each counter is named in one place. `WriteServeStats` writes
/// its keys into the object `w` has open; `WriteFleetStats` and
/// `WriteDurable` write one `"fleet"` / `"durable"` member holding theirs.
void WriteServeStats(JsonWriter* w, const ServeStats& stats);
void WriteFleetStats(JsonWriter* w, const FleetStats& stats);
void WriteDurable(JsonWriter* w, const std::string& state_dir,
                  const DurableFleet& fleet);

class MotifServer {
 public:
  /// Connection handle; 0 is never a live connection.
  using ConnId = std::uint64_t;

  /// Validates options and opens the engine (recovering from
  /// `durable.state_dir` when set). The metric must outlive the server.
  static StatusOr<MotifServer> Create(const ServeOptions& options,
                                      const GroundMetric& metric);

  MotifServer(MotifServer&&) = default;
  MotifServer& operator=(MotifServer&&) = default;

  /// Adopts a freshly accepted socket. Returns 0 when the connection
  /// was shed (at capacity, or draining) — the socket is closed either
  /// way it is rejected.
  ConnId OnAccept(std::unique_ptr<ServeSocket> socket, std::int64_t now_ms);

  /// Drains readable bytes (bounded by `max_read_bytes_per_call`),
  /// parses lines, ingests points, routes frames. Never throws, never
  /// blocks; a connection failing mid-call is closed and counted.
  void OnReadable(ConnId id, std::int64_t now_ms);

  /// Flushes as much of the connection's outbound queue as the socket
  /// accepts.
  void OnWritable(ConnId id, std::int64_t now_ms);

  /// Time-based policy: idle eviction, closing-connection deadlines.
  void Tick(std::int64_t now_ms);

  /// Stops accepting, queues `bye` frames on every connection, and
  /// starts flushing. Idempotent.
  void BeginDrain(std::int64_t now_ms);

  bool draining() const { return draining_; }

  /// True once every connection has flushed (or timed out) and closed.
  bool DrainComplete() const { return draining_ && conns_.empty(); }

  /// Final checkpoint + sync through the durable layer (no-op without
  /// a state dir). Call after the drain completes.
  Status Shutdown();

  // --- Transport introspection -------------------------------------

  bool AtCapacity() const {
    return static_cast<int>(conns_.size()) >=
           options_.limits.max_connections;
  }
  std::vector<ConnId> ConnectionIds() const;
  bool Connected(ConnId id) const { return conns_.count(id) != 0; }
  /// Whether the transport should watch for readability/writability.
  bool WantsRead(ConnId id) const;
  bool WantsWrite(ConnId id) const;
  /// The connection's socket (for fd lookup); null when unknown.
  ServeSocket* socket(ConnId id);

  // --- Introspection for tests, STATS frames, and the CLI ----------

  const ServeStats& stats() const { return stats_; }
  FleetStats fleet_stats() const { return engine_->stats(); }
  const MotifFleetEngine& engine() const { return *engine_; }
  const ServeOptions& options() const { return options_; }
  /// The durable layer (recovery info, generation); null when the
  /// server runs the plain in-memory engine.
  const DurableFleet* durable() const {
    return options_.durable_enabled()
               ? static_cast<const DurableFleet*>(engine_.get())
               : nullptr;
  }
  /// Frames dropped on one connection (drop-oldest casualties).
  std::int64_t ConnDroppedFrames(ConnId id) const;

 private:
  /// Outbound frame: droppable broadcasts vs. never-dropped replies.
  struct Frame {
    std::string bytes;
    bool droppable = false;
  };

  enum class SubMode { kNone, kReports, kJoin, kAll };

  struct Conn {
    std::unique_ptr<ServeSocket> socket;
    /// Unparsed inbound bytes (at most one partial line plus whatever
    /// one read call delivered).
    std::string in;
    /// Oversized-line recovery: swallowing bytes until the next '\n'.
    bool discarding = false;
    std::deque<Frame> out;
    std::size_t out_bytes = 0;
    /// Bytes of out.front() already written (mid-frame progress).
    std::size_t out_offset = 0;
    std::int64_t dropped = 0;
    /// `dropped` value already reported via a `dropped` frame.
    std::int64_t dropped_notified = 0;
    SubMode sub = SubMode::kNone;
    std::int64_t last_read_ms = 0;
    std::int64_t lines = 0;
    /// Flush-then-close (QUIT, drain, eviction); no further reads.
    bool closing = false;
    std::int64_t close_deadline_ms = 0;
  };

  MotifServer(const ServeOptions& options, const GroundMetric& metric)
      : options_(options), metric_(&metric) {}

  Conn* Find(ConnId id);

  /// Parses every complete line in `c.in`, batching ingest rows and
  /// flushing the batch at command boundaries and end of buffer.
  void ProcessBuffer(ConnId id, Conn& c, std::int64_t now_ms);
  void HandleLine(ConnId id, Conn& c, const std::string& line,
                  std::vector<FleetArrival>* batch, std::int64_t now_ms);
  void HandleCommand(ConnId id, Conn& c, const std::string& line,
                     std::int64_t now_ms);
  /// Runs one engine Ingest over the batch and broadcasts its report.
  void FlushIngest(ConnId id, Conn& c, std::vector<FleetArrival>* batch,
                   std::int64_t now_ms);

  Status EnsureStreams(std::size_t stream);

  void Broadcast(const FleetReport& report, std::int64_t now_ms);
  void Enqueue(ConnId id, Conn& c, std::string frame, bool droppable,
               std::int64_t now_ms);
  /// Writes as much queued output as the socket accepts right now.
  void FlushOut(ConnId id, Conn& c);

  void QueueError(ConnId id, Conn& c, const std::string& code,
                  const std::string& message, std::int64_t now_ms);
  /// Queues a bye frame and switches the connection to flush-then-close.
  void BeginClose(Conn& c, const std::string& reason, std::int64_t now_ms);
  void CloseNow(ConnId id);

  std::string HelloFrame() const;
  std::string StatsFrame() const;

  ServeOptions options_;
  const GroundMetric* metric_;

  /// A DurableFleet when a state dir is set, else the plain engine.
  std::unique_ptr<MotifFleetEngine> engine_;

  std::map<ConnId, Conn> conns_;
  ConnId next_id_ = 1;
  bool draining_ = false;
  ServeStats stats_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_SERVE_MOTIF_SERVER_H_
