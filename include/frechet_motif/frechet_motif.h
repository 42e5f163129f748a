#ifndef FRECHET_MOTIF_PUBLIC_FRECHET_MOTIF_H_
#define FRECHET_MOTIF_PUBLIC_FRECHET_MOTIF_H_

/// \file
/// Umbrella header: the entire public API of the frechet_motif library.
///
/// The library reproduces Tang, Yiu, Mouratidis, Wang — *Efficient Motif
/// Discovery in Spatial Trajectories Using Discrete Fréchet Distance*
/// (EDBT 2017) — and its Section 7 extensions. Everything lives in
/// `namespace frechet_motif`.
///
/// Typical use:
///
/// ```
/// #include <frechet_motif/frechet_motif.h>
/// namespace fm = frechet_motif;
///
/// fm::StatusOr<fm::Trajectory> t = fm::ReadCsv("trace.csv");
/// fm::FindMotifOptions options;              // GTM, ξ = 100, τ = 32
/// auto result = fm::FindMotif(t.value(), fm::Haversine(), options);
/// // result->best holds (i, ie, j, je); result->distance the DFD.
/// ```
///
/// Applications that care about compile time can include the per-subsystem
/// headers instead:
///  * `<frechet_motif/status.h>` — `Status` / `StatusOr<T>` error model;
///  * `<frechet_motif/trajectory.h>` — trajectory model, metrics, I/O,
///    simplification, summaries;
///  * `<frechet_motif/options.h>` — shared motif options and result types;
///  * `<frechet_motif/similarity.h>` — DFD kernels + Table 1 measures;
///  * `<frechet_motif/motif.h>` — FindMotif front door, BTM/GTM/GTM*,
///    top-k;
///  * `<frechet_motif/fleet.h>` — incremental sliding-window motif
///    maintenance over live point streams: one or N streams behind one
///    arrival loop, scheduler and incremental ε-join (MotifFleetEngine);
///  * `<frechet_motif/durable.h>` — crash-safe snapshot + journal
///    persistence for the streaming engines (DurableFleet);
///  * `<frechet_motif/join.h>` — DFD similarity join, batch and
///    incremental;
///  * `<frechet_motif/cluster.h>` — subtrajectory clustering;
///  * `<frechet_motif/symbolic.h>` — the symbolic baseline of Figure 4;
///  * `<frechet_motif/datasets.h>` — reproducible synthetic datasets.
///
/// Headers under `frechet_motif/impl/` (installed alongside these) are
/// internal: they back the public surface but carry no stability promise.
/// See CONTRIBUTING.md for the public-API stability rule.

#include "frechet_motif/cluster.h"
#include "frechet_motif/datasets.h"
#include "frechet_motif/durable.h"
#include "frechet_motif/fleet.h"
#include "frechet_motif/join.h"
#include "frechet_motif/motif.h"
#include "frechet_motif/options.h"
#include "frechet_motif/serve.h"
#include "frechet_motif/similarity.h"
#include "frechet_motif/status.h"
#include "frechet_motif/symbolic.h"
#include "frechet_motif/trajectory.h"

#endif  // FRECHET_MOTIF_PUBLIC_FRECHET_MOTIF_H_
