/**
 * @file
 * Clang -Wthread-safety capability annotations and an annotated mutex.
 *
 * The sharding plan (ROADMAP "shard the machine") runs one host
 * thread per simulated Domain. The static side of getting there is
 * simlint's shared-state / cross-domain-access rules; this header is
 * the compiler-checked side: structures that really are shared
 * (the stats registration index) declare their lock with
 * PTL_GUARDED_BY, and clang's -Wthread-safety analysis then rejects
 * unlocked access paths at compile time.
 *
 * Under gcc (the default toolchain here) every macro expands to
 * nothing — the annotations are free documentation — and the dynamic
 * checker (the `tsan` CMake preset, PTL_SANITIZE=thread) covers the
 * same structures at runtime. A clang build gets the full static
 * analysis with no code changes.
 */

#ifndef PTLSIM_LIB_THREADSAFETY_H_
#define PTLSIM_LIB_THREADSAFETY_H_

#include <mutex>

#if defined(__clang__)
#define PTL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PTL_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define PTL_CAPABILITY(x) PTL_THREAD_ANNOTATION(capability(x))

/** RAII types that acquire on construction, release on destruction. */
#define PTL_SCOPED_CAPABILITY PTL_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding `x`. */
#define PTL_GUARDED_BY(x) PTL_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is guarded by `x`. */
#define PTL_PT_GUARDED_BY(x) PTL_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function requires the caller to hold `...` (not acquired here). */
#define PTL_REQUIRES(...) \
    PTL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires `...` and returns holding it. */
#define PTL_ACQUIRE(...) \
    PTL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases `...`. */
#define PTL_RELEASE(...) \
    PTL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function must NOT be called while holding `...` (deadlock guard). */
#define PTL_EXCLUDES(...) PTL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Escape hatch: function body is exempt from the analysis. */
#define PTL_NO_THREAD_SAFETY_ANALYSIS \
    PTL_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ptl {

/** std::mutex wearing the capability annotations. */
class PTL_CAPABILITY("mutex") Mutex
{
  public:
    void lock() PTL_ACQUIRE() { mu_.lock(); }
    void unlock() PTL_RELEASE() { mu_.unlock(); }
    bool try_lock() PTL_THREAD_ANNOTATION(try_acquire_capability(true))
    {
        return mu_.try_lock();
    }

  private:
    std::mutex mu_;
};

/** std::lock_guard<Mutex> the analysis can see through. */
class PTL_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) PTL_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~LockGuard() PTL_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

}  // namespace ptl

#endif  // PTLSIM_LIB_THREADSAFETY_H_
