#pragma once

/// \file annotations.h
/// Clang thread-safety analysis attributes behind JIGSAW_ macros.
///
/// The determinism contract (bit-identical parallel/serial twins) rests on
/// a lock discipline: every field shared across pool tasks or sessions is
/// guarded by exactly one mutex, and every access happens with that mutex
/// held. TSan verifies the interleavings the tests happen to exercise;
/// these annotations make the discipline a *compile-time* property — the
/// clang-analysis CI job builds with `-Wthread-safety -Werror=thread-safety`,
/// so an unguarded access or a lock-order bug is a build break on every
/// push, not a probabilistic test failure.
///
/// Usage (see util/mutex.h for the annotated primitives):
///
///   jigsaw::Mutex mu_;
///   std::vector<int> items_ JIGSAW_GUARDED_BY(mu_);
///   void AppendLocked(int v) JIGSAW_REQUIRES(mu_);
///
/// Under GCC (the container toolchain) and MSVC every macro expands to
/// nothing, so the annotations are zero-cost documentation off-Clang.
/// Only the attributes the code uses are defined here; add another when
/// its first use appears.

#if defined(__clang__) && (!defined(SWIG))
#define JIGSAW_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define JIGSAW_THREAD_ANNOTATION_(x)  // no-op off-Clang
#endif

/// Declares a class to be a lockable capability ("mutex" by convention).
#define JIGSAW_CAPABILITY(x) JIGSAW_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define JIGSAW_SCOPED_CAPABILITY JIGSAW_THREAD_ANNOTATION_(scoped_lockable)

/// Field `x` may only be read or written while the named mutex is held.
#define JIGSAW_GUARDED_BY(x) JIGSAW_THREAD_ANNOTATION_(guarded_by(x))

/// The function may only be called while the listed capabilities are held
/// by the caller (and they stay held — it neither acquires nor releases).
#define JIGSAW_REQUIRES(...) \
  JIGSAW_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function may only be called while the listed capabilities are NOT
/// held (guards against self-deadlock on non-reentrant mutexes).
#define JIGSAW_EXCLUDES(...) \
  JIGSAW_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define JIGSAW_ACQUIRE(...) \
  JIGSAW_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases a held capability.
#define JIGSAW_RELEASE(...) \
  JIGSAW_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
