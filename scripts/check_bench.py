#!/usr/bin/env python3
"""Validate the benches' JSON artifacts against their invariants.

One checker for every BENCH_*.json: the committed artifacts, whose
measured numbers carry hard invariants, and the smoke runs of the CI
bench-smoke job, whose timings are too noisy to gate but whose schema and
acceptance signals are not. CHECKS maps each file name to its checks. A
gate the recording machine could not evaluate prints a `SKIPPED:` line
instead of a silent "ok".

Usage:
  scripts/check_bench.py [FILE...]

With no FILE, every file in CHECKS is checked and a missing one is an
error; a FILE is matched to its checks by base name. Exits non-zero with
a message on the first violated invariant.
"""

import json
import os
import sys

# Headroom for the decimal JSON round-trip of the approximation ratio;
# the sweep enforced the exact bound on the original doubles.
RATIO_SLACK = 1e-9


class Failure(Exception):
    pass


def require(condition, message):
    if not condition:
        raise Failure(message)


# --- bench_micro_kernels -----------------------------------------------


def micro_kernels_present(doc, path):
    kernels = {k["name"] for k in doc["kernels"]}
    required = {"dfd_on_range_generic", "dfd_on_range_matrix",
                "dfd_on_range_matrix_scalar",
                "dfd_on_range_matrix_threshold",
                "dfd_on_range_matrix_threshold_scalar",
                "fleet_drain_16w", "btm_relaxed"}
    missing = required - kernels
    require(not missing, f"missing kernels: {missing}")
    require(all(k["ns_per_op"] > 0 for k in doc["kernels"]),
            "a kernel has ns_per_op <= 0")
    print(f"ok: {len(doc['kernels'])} kernels, git={doc['git']}")


def micro_kernels_committed(doc, path):
    """The committed artifact's hard invariants:
     * the threshold kernel never loses to the unthresholded one at any
       measured size — the PR-8 anomaly stays fixed;
     * the SIMD kernel beats the scalar-capped one >= 1.5x at every
       measured size when the recording machine dispatched a vector
       level (simd_level >= 1);
     * the 16-window threaded drain beats the serial one when the
       recording machine actually had the cores (hw_threads >= 4).
    """
    by = {(k["name"], k["n"], k["threads"]): k for k in doc["kernels"]}
    sizes = sorted(n for (name, n, t) in by if name == "dfd_on_range_matrix")
    require(sizes, "committed JSON has no dfd_on_range_matrix rows")
    for n in sizes:
        matrix = by[("dfd_on_range_matrix", n, 1)]
        thresh = by[("dfd_on_range_matrix_threshold", n, 1)]
        require(thresh["ns_per_op"] <= matrix["ns_per_op"],
                f"threshold kernel slower at n={n}: "
                f"{thresh['ns_per_op']} > {matrix['ns_per_op']}")
        if matrix.get("simd_level", 0) >= 1:
            scalar = by[("dfd_on_range_matrix_scalar", n, 1)]
            ratio = scalar["ns_per_op"] / matrix["ns_per_op"]
            require(ratio >= 1.5, f"SIMD speedup {ratio:.2f}x < 1.5x at n={n}")
    drain1 = by[("fleet_drain_16w", 16, 1)]
    drain4 = by[("fleet_drain_16w", 16, 4)]
    if drain4.get("hw_threads", 1) >= 4:
        require(drain4["ns_per_op"] < drain1["ns_per_op"],
                "threaded 16-window drain slower than serial: "
                f"{drain4['ns_per_op']} >= {drain1['ns_per_op']}")
        print("ok: threaded fleet drain beats serial")
    else:
        # Dormant, not passing: single-core recording machines cannot
        # exercise the speedup gate, and a silent "ok" here would read as
        # coverage the run never had.
        print("SKIPPED: fleet-drain speedup gate — "
              "BENCH_kernels.json was recorded on a "
              f"{drain4.get('hw_threads', 1):.0f}-thread machine "
              "(needs hw_threads >= 4); re-record on a multi-core "
              "machine to arm it")
    print(f"ok: committed kernels JSON invariants hold (sizes {sizes})")


# --- bench_approx_sweep ------------------------------------------------


def approx_leg_rows(doc, name):
    rows = [k for k in doc["kernels"] if k["name"] == name]
    require(len(rows) >= 2, f"{name}: expected >= 2 eps rows, "
                            f"found {len(rows)}")
    rows.sort(key=lambda k: k["approx_eps"])
    require(rows[0]["approx_eps"] == 0.0, f"{name}: no eps = 0 baseline row")
    return rows


def approx_legs(doc, path):
    """For the batch (FindMotif) and streaming legs of the sweep:
     1. every achieved-distance ratio is within the advertised (1+eps)
        bound (the streaming leg records its worst ratio across slides);
     2. the eps = 0 row is bit-identical to the exact baseline and has
        ratio exactly 1;
     3. DP cells are non-increasing as eps grows.
    """
    require(doc.get("bench") == "approx_sweep",
            "not an approx_sweep artifact")
    for name, ratio_key in (("batch_search", "distance_ratio"),
                            ("stream_search", "max_distance_ratio")):
        previous_cells = None
        for row in approx_leg_rows(doc, name):
            eps = row["approx_eps"]
            ratio = row[ratio_key]
            require(1.0 - RATIO_SLACK <= ratio
                    <= (1.0 + eps) * (1.0 + RATIO_SLACK),
                    f"{name} eps={eps}: {ratio_key} {ratio!r} "
                    "outside [1, 1+eps]")
            if eps == 0.0:
                require(row["bit_identical_to_exact"] == 1.0,
                        f"{name}: eps = 0 row is not bit-identical to the "
                        "exact baseline")
                require(ratio == 1.0, f"{name}: eps = 0 ratio {ratio!r} != 1")
            require(previous_cells is None
                    or row["dfd_cells"] <= previous_cells,
                    f"{name} eps={eps}: dfd_cells {row['dfd_cells']:.0f} "
                    f"exceeds the previous eps level's {previous_cells}")
            previous_cells = row["dfd_cells"]
            print(f"ok: {name} eps={eps:<5g} cells={row['dfd_cells']:<12.0f} "
                  f"{ratio_key}={ratio:.6f}")
    print(f"ok: {path} approx-sweep invariants hold")


def approx_stream_reduction(minimum, at_eps):
    """The committed sweep's acceptance bar: the streaming leg at `at_eps`
    cuts DP cells by at least `minimum` vs the exact run. Smoke runs skip
    it — their tiny workload makes the reduction noisy."""
    def check(doc, path):
        rows = approx_leg_rows(doc, "stream_search")
        row = next((r for r in rows if r["approx_eps"] == at_eps), None)
        require(row is not None,
                f"stream_search: no eps = {at_eps} row to gate on")
        reduction = 1.0 - row["cells_vs_exact"]
        require(reduction >= minimum,
                f"stream_search eps={at_eps}: DP-cell reduction "
                f"{100 * reduction:.1f}% below the required "
                f"{100 * minimum:.1f}%")
        print(f"ok: stream_search eps={at_eps} cuts DP cells by "
              f"{100 * reduction:.1f}% (>= {100 * minimum:.1f}% required)")
    return check


CHECKS = {
    "BENCH_smoke.json": [micro_kernels_present],
    "BENCH_kernels.json": [micro_kernels_committed],
    "BENCH_approx_smoke.json": [approx_legs],
    "BENCH_approx.json": [approx_legs,
                          approx_stream_reduction(minimum=0.30, at_eps=0.05)],
}


def main(argv):
    paths = argv[1:] or list(CHECKS)
    for path in paths:
        checks = CHECKS.get(os.path.basename(path))
        if checks is None:
            print(f"{path}: no invariants declared for this file name "
                  f"(known: {', '.join(CHECKS)})", file=sys.stderr)
            return 1
        try:
            with open(path) as f:
                doc = json.load(f)
            for check in checks:
                check(doc, path)
        except (OSError, ValueError, KeyError, Failure) as e:
            print(f"{path}: {type(e).__name__}: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
