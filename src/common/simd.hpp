/**
 * @file
 * Function multi-versioning for the handful of numeric hot loops on the
 * chip's evaluation paths: the two crossbar column kernels (the
 * 1-window x 16-column solo tile every dense and spike read runs, and
 * the indexed conv read's four-window group: 4-window x 8-column tiles
 * loading their drives through the im2col table, with the reference
 * and power chains in the first tile), the indexed read's ABFT chains,
 * and the chip's group-output reconstruction (emitGroup, which inlines
 * the neuron units' threshold-count readout).
 */

#ifndef NEBULA_COMMON_SIMD_HPP
#define NEBULA_COMMON_SIMD_HPP

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define NEBULA_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define NEBULA_SANITIZED 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && !defined(NEBULA_SANITIZED) && \
    (defined(__GNUC__) || defined(__clang__))
/**
 * Compile the annotated function three times -- baseline ISA, AVX2 and
 * AVX-512F -- and pick the widest the CPU supports at load time (GNU
 * ifunc dispatch). The AVX2 clone widens the column loops from 2 to 4
 * doubles per instruction, the AVX-512 clone to 8. The clones
 * deliberately do NOT enable FMA: fused multiply-adds round
 * differently, and the fast paths are pinned bit-for-bit to the scalar
 * reference loops by the differential tests. Vector width alone never
 * changes results -- each output element sees the same mul-then-add
 * sequence regardless of how many neighbours share the instruction.
 *
 * Not under TSan/ASan: the ifunc resolvers run before the sanitizer
 * runtime is initialized and crash the binary at load.
 */
#define NEBULA_TARGET_CLONES \
    __attribute__((target_clones("default", "avx2", "avx512f")))
#define NEBULA_HAS_TARGET_CLONES 1
#else
#define NEBULA_TARGET_CLONES
#endif

#endif // NEBULA_COMMON_SIMD_HPP
