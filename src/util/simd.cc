#include "util/simd.h"

#include <atomic>

namespace frechet_motif {

namespace {

constexpr int kNoCap = static_cast<int>(SimdLevel::kAvx2);

/// Test/bench cap; kNoCap means "no programmatic cap". Relaxed is enough:
/// the cap is configuration, not synchronization — callers set it before
/// launching the work that should observe it.
std::atomic<int> g_cap{kNoCap};

SimdLevel DetectOnce() {
#if defined(FRECHET_MOTIF_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

SimdLevel CompiledSimdLevel() {
#if defined(FRECHET_MOTIF_SIMD_X86)
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = DetectOnce();
  return detected;
}

SimdLevel ActiveSimdLevel() {
  const int cap = g_cap.load(std::memory_order_relaxed);
  const SimdLevel detected = DetectedSimdLevel();
  return static_cast<int>(detected) < cap ? detected
                                          : static_cast<SimdLevel>(cap);
}

void SetSimdLevelCap(SimdLevel cap) {
  g_cap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

void ClearSimdLevelCap() { g_cap.store(kNoCap, std::memory_order_relaxed); }

}  // namespace frechet_motif
