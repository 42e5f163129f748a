#ifndef FRECHET_MOTIF_PUBLIC_SERVE_H_
#define FRECHET_MOTIF_PUBLIC_SERVE_H_

/// \file
/// Public serve surface: motif-as-a-service over TCP, robustness-first.
///
/// `MotifServer` is the transport-independent core of `fmotif serve`: a
/// single-threaded server that accepts line-delimited point ingest
/// (`stream,lat,lon[,ts]` — the fleet CSV dialect) plus subscription
/// commands (`SUB reports|join|all`, `UNSUB`, `PING`, `STATS`, `QUIT`),
/// routes arrivals into a `MotifFleetEngine` (journaled through
/// `DurableFleet` when a state directory is configured), and pushes
/// per-slide reports and join deltas to subscribers as newline-delimited
/// single-line JSON frames. `fmotif stream|fleet --json` prints the same
/// frames (`SerializeReportFrame`, `SerializeJoinFrame`), so the CLI and
/// a subscriber read identical bytes for the same feed.
///
/// ```
/// ServeOptions options;                    // fleet + limits + durability
/// options.fleet.stream.window_length = 64;
/// auto server = MotifServer::Create(options, Haversine());
/// auto listener = PosixListener::Create("127.0.0.1", 0);
/// ServeLoopOptions loop;
/// loop.stop = &g_interrupted;              // SIGTERM/SIGINT flag
/// RunServeLoop(server.value(), listener.value(), loop);
/// server.value().Shutdown();               // durable checkpoint
/// ```
///
/// Robustness guarantees (enforced by tests/serve_fault_test.cc over the
/// injectable `ServeSocket` seam): a malformed, oversized, or torn
/// protocol line answers with an `error` frame and never kills the
/// process; a slow subscriber loses oldest broadcast frames (counted,
/// and reported via `dropped` frames) and is evicted past a high-water
/// mark, but can never stall ingest; admission control sheds connections
/// past `ServeLimits::max_connections`; and a graceful drain flushes
/// every subscriber before `Shutdown` checkpoints. A surviving
/// subscriber's report stream is bit-identical to a batch
/// `MotifFleetEngine` oracle fed the same acknowledged points.

#include "serve/motif_server.h"
#include "serve/serve_loop.h"
#include "serve/serve_socket.h"

#endif  // FRECHET_MOTIF_PUBLIC_SERVE_H_
