#pragma once
// Numeric precision of the forward. The library computes in fp32 only;
// these names stay for the benchmark's run context, which reports the
// precision a run measured (apfbench's "precision" field).

namespace apf {

enum class Precision : int { kFp32 = 0 };

/// Stable lowercase name ("fp32").
inline const char* precision_name(Precision) { return "fp32"; }

/// The precision the calling thread computes in: always fp32.
inline Precision active_precision() { return Precision::kFp32; }

}  // namespace apf
