// Clang -Wthread-safety annotations and the annotated lock vocabulary the
// threaded layers are written in (DESIGN.md §15).
//
// Clang's thread-safety analysis proves, at compile time, that every access
// to a `MARSIT_GUARDED_BY(mu)` member happens with `mu` held — which is
// exactly the class of bug the socket teardown race of PR 8 was (state
// touched between a mailbox push and an ack under the wrong interleaving).
// The analysis only understands *capability* types, and libstdc++'s
// std::mutex carries no capability attribute, so annotating members with a
// raw std::mutex would be inert.  This header therefore provides:
//
//   * the MARSIT_* attribute macros (no-ops on compilers without the
//     attributes, so gcc builds are unaffected);
//   * marsit::Mutex — std::mutex wrapped as a MARSIT_CAPABILITY;
//   * marsit::MutexLock — the scoped holder (MARSIT_SCOPED_CAPABILITY);
//   * marsit::CondVar — std::condition_variable_any over marsit::Mutex whose
//     wait() requires the mutex and *requires a predicate* (the R6 lint rule
//     bans predicate-less waits; this API cannot express one).
//
// Every mutex-protected structure in src/ uses these types; CI builds src/
// with clang and -Werror=thread-safety so a guarded member touched without
// its mutex is a build break, not a TSan roll of the dice.
//
// This is the one file in src/ allowed to call raw mutex lock()/unlock():
// the linter's R6 lock-discipline rule exempts it by path and flags raw
// calls everywhere else.
#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>

// Attribute detection: clang defines the thread-safety attributes behind
// __has_attribute; everything else compiles the macros away.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define MARSIT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MARSIT_THREAD_ANNOTATION
#define MARSIT_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a type to be a capability (lockable) the analysis tracks.
#define MARSIT_CAPABILITY(x) MARSIT_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define MARSIT_SCOPED_CAPABILITY MARSIT_THREAD_ANNOTATION(scoped_lockable)

/// Member data that may only be touched while `x` is held.
#define MARSIT_GUARDED_BY(x) MARSIT_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* may only be touched while `x` is held.
#define MARSIT_PT_GUARDED_BY(x) MARSIT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the named capabilities and does not release them.
#define MARSIT_ACQUIRE(...) \
  MARSIT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the named capabilities (or, on a scoped capability
/// with no argument, whatever the scope holds).
#define MARSIT_RELEASE(...) \
  MARSIT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability only when returning the given value:
/// MARSIT_TRY_ACQUIRE(true) or MARSIT_TRY_ACQUIRE(true, mu).
#define MARSIT_TRY_ACQUIRE(...) \
  MARSIT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the named capabilities to call this function.
#define MARSIT_REQUIRES(...) \
  MARSIT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the named capabilities (deadlock prevention).
#define MARSIT_EXCLUDES(...) MARSIT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define MARSIT_RETURN_CAPABILITY(x) MARSIT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function body is not analyzed.  Reserve for code the
/// analysis cannot model; pair with a comment saying why.
#define MARSIT_NO_THREAD_SAFETY_ANALYSIS \
  MARSIT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace marsit {

/// std::mutex as a clang capability.  Satisfies BasicLockable, so it also
/// works as the Lockable of CondVar's condition_variable_any.
class MARSIT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MARSIT_ACQUIRE() { raw_.lock(); }
  void unlock() MARSIT_RELEASE() { raw_.unlock(); }
  bool try_lock() MARSIT_TRY_ACQUIRE(true) { return raw_.try_lock(); }

 private:
  std::mutex raw_;
};

/// Scoped holder for Mutex — the project's lock_guard: acquires on
/// construction, releases on scope exit.  CondVar::wait releases and
/// reacquires the mutex underneath it.
class MARSIT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) MARSIT_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() MARSIT_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over marsit::Mutex.  wait() takes the mutex (which the
/// caller must hold — enforced by the analysis) plus a mandatory predicate:
/// the lost-wakeup-prone predicate-less overload simply does not exist here,
/// making the R6 lint rule structurally unviolatable at these call sites.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { raw_.notify_one(); }
  void notify_all() noexcept { raw_.notify_all(); }

  /// Atomically releases `mutex`, sleeps until `stop_waiting()` is true
  /// (re-checked under the mutex after every wakeup), and returns with
  /// `mutex` reacquired.  The analysis sees the mutex continuously held
  /// across the call, which matches the caller-visible contract.
  template <typename Predicate>
  void wait(Mutex& mutex, Predicate stop_waiting) MARSIT_REQUIRES(mutex) {
    raw_.wait(mutex, std::move(stop_waiting));
  }

 private:
  std::condition_variable_any raw_;
};

}  // namespace marsit
