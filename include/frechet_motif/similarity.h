#ifndef FRECHET_MOTIF_PUBLIC_SIMILARITY_H_
#define FRECHET_MOTIF_PUBLIC_SIMILARITY_H_

/// \file
/// Public similarity-measure surface: the discrete Fréchet distance (DFD)
/// kernels plus the comparison measures of the paper's Table 1.
///
/// The DFD entry points (`similarity/frechet.h`) are the heart of the
/// library:
///  * `DiscreteFrechet()` — exact DFD between two trajectories;
///  * `DiscreteFrechetOnRange()` — DFD of a subtrajectory pair over a
///    ground-distance provider, with the threshold early-exit contract the
///    motif search builds on;
///  * `DiscreteFrechetAtMost()` — the decision "is DFD ≤ θ?", and
///    `DfdDecision`, the primitive behind it that the similarity join and
///    clustering hold once per (metric, θ). A cell is decided on its
///    squared chord (haversine) or squared planar distance against a
///    precomputed s*, and only a cell inside a 1e-9 relative guard band
///    around s* evaluates its exact distance, so every verdict equals
///    `metric.Distance(a, b) <= θ` bit for bit. Reachability runs 64
///    columns per word: with F a row's within-θ bits and
///    S = F & (R' | R' << 1) its seeds from the row above,
///    R = F & (((F + S) ^ F) | S), with add-with-carry across words;
///  * `DiscreteFrechetCoupling()` — an optimal point alignment, for
///    rendering *why* two subtrajectories match;
///  * `FrechetScratch` — reusable DP buffers that make every evaluation
///    allocation-free after warm-up (one per thread).
///
/// The comparison measures — lock-step Euclidean (`similarity/euclidean.h`),
/// DTW (`similarity/dtw.h`), LCSS (`similarity/lcss.h`) and EDR
/// (`similarity/edr.h`) — exist for the robustness experiments
/// (Table 1, Figure 3); motif discovery itself is DFD-only.

#include "similarity/dtw.h"
#include "similarity/edr.h"
#include "similarity/euclidean.h"
#include "similarity/frechet.h"
#include "similarity/lcss.h"

#endif  // FRECHET_MOTIF_PUBLIC_SIMILARITY_H_
