// Lock-discipline annotations and the annotated mutex/condvar wrappers.
//
// The repo's bit-identical-at-any-thread-count guarantee (DESIGN.md §10)
// depends on every piece of shared mutable state having an explicit, named
// owner: either an atomic with documented ordering, or a field guarded by a
// specific mutex. This header makes that ownership machine-checkable:
//   - under Clang, the macros expand to the thread-safety-analysis
//     attributes, so `-Wthread-safety` proves in the compiler that every
//     DBLAYOUT_GUARDED_BY field is only touched with its mutex held (the CI
//     `clang-thread-safety` matrix leg builds that way, with
//     -Werror=thread-safety-analysis);
//   - the compiler only checks fields that carry an annotation, so
//     `dblayout check`'s unannotated-mutex-field rule (src/staticcheck/)
//     requires one on every mutable field of a class that owns a Mutex.
// Everywhere else (GCC, MSVC) the macros expand to nothing.
//
// Use the wrappers, not std::mutex, for new guarded state:
//
//   class Registry {
//    public:
//     void Add(Item item) {
//       MutexLock lock(mu_);
//       items_.push_back(std::move(item));
//     }
//    private:
//     Mutex mu_;
//     std::vector<Item> items_ DBLAYOUT_GUARDED_BY(mu_);
//   };
//
// A private helper that assumes the lock is already held is annotated
// `DBLAYOUT_REQUIRES(mu_)` and may then touch guarded fields freely; Clang
// verifies that its callers hold the mutex.

#ifndef DBLAYOUT_COMMON_MUTEX_H_
#define DBLAYOUT_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

// --- Attribute macros -------------------------------------------------------
//
// Modeled on Clang's thread-safety-analysis attribute set. dblayout check's
// unannotated-mutex-field rule keys on the token DBLAYOUT_GUARDED_BY (not its
// expansion), so that rule works identically under every compiler.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define DBLAYOUT_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#if !defined(DBLAYOUT_THREAD_ANNOTATION_)
#define DBLAYOUT_THREAD_ANNOTATION_(x)
#endif

/// On a data member: may only be read or written while `m` is held.
#define DBLAYOUT_GUARDED_BY(m) DBLAYOUT_THREAD_ANNOTATION_(guarded_by(m))
/// On a pointer member: the *pointee* is guarded by `m` (the pointer itself
/// is not).
#define DBLAYOUT_PT_GUARDED_BY(m) DBLAYOUT_THREAD_ANNOTATION_(pt_guarded_by(m))
/// On a function: callers must hold `m` for the duration of the call.
#define DBLAYOUT_REQUIRES(...) \
  DBLAYOUT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// On a function: callers must NOT hold `m` (the function locks it itself).
#define DBLAYOUT_EXCLUDES(...) \
  DBLAYOUT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// On a lock-like class; argument is the capability kind ("mutex").
#define DBLAYOUT_CAPABILITY(x) DBLAYOUT_THREAD_ANNOTATION_(capability(x))
/// On an RAII guard class whose constructor acquires and destructor releases.
#define DBLAYOUT_SCOPED_CAPABILITY \
  DBLAYOUT_THREAD_ANNOTATION_(scoped_lockable)
/// On a member function that acquires / releases the capability.
#define DBLAYOUT_ACQUIRE(...) \
  DBLAYOUT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define DBLAYOUT_RELEASE(...) \
  DBLAYOUT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define DBLAYOUT_TRY_ACQUIRE(...) \
  DBLAYOUT_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Opts one function out of the compiler analysis (CondVar internals that
/// hand a held mutex to std primitives). Use sparingly.
#define DBLAYOUT_NO_THREAD_SAFETY_ANALYSIS \
  DBLAYOUT_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace dblayout {

class CondVar;

/// An annotated std::mutex. BasicLockable (lock/unlock), so it composes with
/// std lock adapters where needed, but guarded code should prefer MutexLock.
class DBLAYOUT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DBLAYOUT_ACQUIRE() { mu_.lock(); }
  void unlock() DBLAYOUT_RELEASE() { mu_.unlock(); }
  bool try_lock() DBLAYOUT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for the scope it lives in. The scope of the guard *is* the
/// locked region the analysis reasons about, so keep it tight.
class DBLAYOUT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DBLAYOUT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DBLAYOUT_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// Condition variable over Mutex. Wait takes the live MutexLock; write the
/// predicate as an explicit while-loop in the caller so guarded reads in the
/// condition happen in a scope the analysis can see holds the mutex:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock's mutex, blocks, and re-acquires before
  /// returning. From the analysis' point of view the mutex is held
  /// throughout (the temporary release is internal to the wait).
  void Wait(MutexLock& lock) DBLAYOUT_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(lock.mu_.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_MUTEX_H_
