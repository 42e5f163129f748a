#ifndef FRECHET_MOTIF_UTIL_SIMD_H_
#define FRECHET_MOTIF_UTIL_SIMD_H_

/// Runtime SIMD dispatch for the vectorized kernels (currently the
/// discrete-Fréchet DP in src/similarity/frechet.cc).
///
/// There are two tiers: the always-present scalar kernel and an AVX2
/// variant compiled as a target-attribute function next to it, so one
/// baseline x86-64 binary carries both and runs AVX2 when the CPU has it.
/// `FRECHET_MOTIF_SIMD=OFF` removes the vector path at compile time (it
/// stands in for non-x86 targets) — the scalar fallback is the same code
/// either way.
///
/// Both tiers return bit-identical results (the DP is min/max-only, so
/// vector reassociation is exact — see docs/PERFORMANCE.md), which is
/// why the dispatch level is allowed to be an invisible runtime choice.
/// tests/kernel_parity_fuzz_test.cc enforces that bit-identity.
///
/// The one override is SetSimdLevelCap(), which tests and benchmarks use
/// to pin the scalar tier; otherwise CPU detection decides.

namespace frechet_motif {

/// Instruction-set tiers the kernels are specialized for, widest last.
/// Caps compose by min(), so the numeric order is meaningful. The values
/// are recorded as `simd_level` in bench JSON (0 = scalar, 2 = AVX2).
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// Lower-case tier name ("scalar" or "avx2").
const char* SimdLevelName(SimdLevel level);

/// Widest tier this binary carries code for — a compile-time fact
/// (kScalar when FRECHET_MOTIF_SIMD=OFF or on non-x86 targets).
SimdLevel CompiledSimdLevel();

/// Widest compiled tier the running CPU supports (detected once, cached).
SimdLevel DetectedSimdLevel();

/// The tier the dispatched kernels run at right now:
/// min(DetectedSimdLevel(), SetSimdLevelCap cap).
SimdLevel ActiveSimdLevel();

/// Caps ActiveSimdLevel() at `cap` until ClearSimdLevelCap(). For tests
/// and benchmarks that must pin a specific kernel variant (results are
/// bit-identical across tiers, so production code never needs this).
/// Atomic, so worker threads observe the cap, but not a synchronization
/// point — set it before spawning the work that should see it.
void SetSimdLevelCap(SimdLevel cap);
void ClearSimdLevelCap();

}  // namespace frechet_motif

// Compile gate for the x86 vector kernel: target-attribute functions
// need GCC/Clang, and FRECHET_MOTIF_SIMD=OFF (-> FRECHET_MOTIF_FORCE_SCALAR)
// removes it entirely.
#if !defined(FRECHET_MOTIF_FORCE_SCALAR) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FRECHET_MOTIF_SIMD_X86 1
#endif

#endif  // FRECHET_MOTIF_UTIL_SIMD_H_
