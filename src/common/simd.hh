/** @file Host vector backend name for benchmark output: the
 *  simulator has one scalar engine, so it is always "scalar". */

#ifndef ATHENA_COMMON_SIMD_HH
#define ATHENA_COMMON_SIMD_HH

namespace athena::simd
{
enum class Backend { kScalar };
inline Backend activeBackend() { return Backend::kScalar; }
inline const char *backendName(Backend) { return "scalar"; }
} // namespace athena::simd

#endif // ATHENA_COMMON_SIMD_HH
