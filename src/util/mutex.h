#pragma once

/// \file mutex.h
/// Annotated mutex primitives: thin zero-overhead wrappers over
/// std::mutex / std::condition_variable that carry the Clang thread-safety
/// capability attributes of annotations.h. Every locked component in the
/// tree (ThreadPool, pdb::WorldCache, serve::SessionServer) uses these
/// instead of the raw std types so the guard relationships are
/// machine-checked at compile time under Clang.
///
/// Conventions:
///  * Declare guarded fields right after their Mutex with
///    JIGSAW_GUARDED_BY(mu_); private helpers that assume the lock take
///    JIGSAW_REQUIRES(mu_).
///  * Prefer MutexLock scopes over manual Lock/Unlock pairs.
///  * CondVar::Wait requires the mutex held (it releases and reacquires
///    internally, like std::condition_variable::wait) — spell waits as
///    explicit `while (!pred) cv_.Wait(&mu_);` loops rather than lambda
///    predicates so the analysis sees the guarded reads under the lock.

#include <condition_variable>
#include <mutex>

#include "util/annotations.h"

namespace jigsaw {

class CondVar;

/// A std::mutex carrying the "mutex" capability.
class JIGSAW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() JIGSAW_ACQUIRE() { raw_.lock(); }
  void Unlock() JIGSAW_RELEASE() { raw_.unlock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

/// RAII scope: acquires in the constructor, releases in the destructor.
class JIGSAW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) JIGSAW_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() JIGSAW_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with jigsaw::Mutex. Wait atomically releases
/// the mutex and reacquires it before returning, so from the analysis's
/// point of view the capability is held across the call — hence
/// JIGSAW_REQUIRES rather than release/acquire, matching how
/// std::condition_variable composes with a surrounding lock scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) JIGSAW_REQUIRES(mu) {
    // Adopt the already-held mutex for the duration of the wait, then
    // release the unique_lock's ownership claim without unlocking — the
    // caller's MutexLock scope still owns the capability.
    std::unique_lock<std::mutex> lock(mu->raw_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace jigsaw
