/**
 * @file
 * Deliberate protocol mutations for checker efficacy tests.
 *
 * A checker that has never caught a bug proves nothing. Tests can arm
 * exactly one runtime-selected mutation that breaks a protocol rule
 * the invariant checker is supposed to enforce, then assert the
 * checker reports it with a diagnostic naming the invariant and TID
 * (tests/test_invariants.cc). With no mutation armed - the only state
 * any normal run is ever in - every hook site reduces to one load and
 * a predictably-false compare.
 *
 * The hooks are deliberately NOT thread-safe to arm: tests arm a
 * mutation before constructing Systems and disarm after; concurrent
 * sweeps only ever observe Kind::None.
 */

#ifndef TCC_CHECK_MUTATE_HH
#define TCC_CHECK_MUTATE_HH

#include <cstdint>

namespace tcc::mutate {

enum class Kind : std::uint8_t {
    None,
    /** Directory::advance() consumes one extra (unretired) TID from
     *  the skip window, so a TID is served-or-skipped nowhere. */
    SkipVectorOverConsume,
    /** Directory applies a commit without waiting for all marks. */
    CommitBeforeMarks,
    /** Directory::advance() steps the NSTID backwards once. */
    NstidRewind,
    /** Directory silently drops Skip messages. */
    DropSkip,
    /** A violated, unannounced transaction forgets its retained TID. */
    TidDropOnViolation,
    NumKinds,
};

/** Diagnostic name of a mutation. */
constexpr const char *
name(Kind k)
{
    switch (k) {
      case Kind::None: return "none";
      case Kind::SkipVectorOverConsume: return "skip-vector-over-consume";
      case Kind::CommitBeforeMarks: return "commit-before-marks";
      case Kind::NstidRewind: return "nstid-rewind";
      case Kind::DropSkip: return "drop-skip";
      case Kind::TidDropOnViolation: return "tid-drop-on-violation";
      default: return "?";
    }
}

namespace detail {
inline Kind gActive = Kind::None;
} // namespace detail

/** The armed mutation (Kind::None outside mutation tests). */
inline Kind active() { return detail::gActive; }

/** Arm @p k (tests only; arm before building Systems). */
inline void set(Kind k) { detail::gActive = k; }

/** Hook-site test: is mutation @p k armed? */
inline bool is(Kind k) { return detail::gActive == k; }

/** RAII arm/disarm for tests. */
class Scoped
{
  public:
    explicit Scoped(Kind k) { set(k); }
    ~Scoped() { set(Kind::None); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
};

} // namespace tcc::mutate

#endif // TCC_CHECK_MUTATE_HH
