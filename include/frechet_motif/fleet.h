#ifndef FRECHET_MOTIF_PUBLIC_FLEET_H_
#define FRECHET_MOTIF_PUBLIC_FLEET_H_

/// \file
/// Public streaming surface: incremental sliding-window motif
/// maintenance for live trajectory feeds — one stream or N of them
/// behind one arrival loop, one scheduler and one worker pool, with an
/// incrementally maintained DFD ε-join across the windows.
///
/// `MotifFleetEngine` maintains one bounded window of the last W points
/// per registered stream, and re-derives each window's motif on a fixed
/// cadence without ever rebuilding state from scratch: the
/// ground-distance matrix is a ring buffer (one fresh row/column per
/// arrival, O(1) eviction), the relaxed-bound minima are updated under
/// eviction, and each search carries the previous window's motif
/// distance forward as its pruning threshold. Arrivals — single points
/// or multiplexed batches, optionally timestamped and optionally
/// re-ordered through a per-stream watermark buffer
/// (`FleetOptions::reorder_capacity`) — flow through one ingest loop;
/// due re-searches are ordered by a dirty-cell/staleness scheduler and
/// can be budgeted (`FleetOptions::max_searches_per_drain`) so a busy
/// fleet coalesces pending slides instead of falling behind.
///
/// ```
/// FleetOptions options;                  // W = 512, slide 32, ξ = 100
/// options.join_epsilon = 250.0;          // maintain the ε-join too
/// auto engine = MotifFleetEngine::Create(options, Haversine());
/// std::size_t a = engine.value().AddStream().value();
/// std::size_t b = engine.value().AddStream().value();
/// auto report = engine.value().Ingest({{a, pa}, {b, pb}});
/// // report->updates: per-slide motifs, each bit-identical to
/// // FindMotif(options.stream.BaselineOptions()) on its window;
/// // report->join_delta: stream pairs entering/leaving ε.
/// ```
///
/// Guarantees (proofs in the implementation headers): in the default
/// unbudgeted mode each stream's report sequence is **bit-identical** to
/// a one-member fleet fed one point per `Push`, and to
/// `FindMotif(BaselineOptions())` on the window (ties included — equal
/// distances resolve everywhere to the canonical (i, j, ie, je)
/// minimum); and the accumulated join deltas equal a from-scratch
/// `DfdSelfJoin` over the current window snapshots. The `fmotif stream`
/// (a one-member fleet) and `fmotif fleet` subcommands expose the engine
/// on the command line.

#include "join/incremental_join.h"
#include "stream/ingest_frontend.h"
#include "stream/motif_fleet_engine.h"
#include "stream/search_scheduler.h"

#endif  // FRECHET_MOTIF_PUBLIC_FLEET_H_
