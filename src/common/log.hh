/**
 * @file
 * Minimal leveled logging / fatal-error helpers, in the spirit of gem5's
 * logging.hh: panic() for simulator bugs, fatal() for user errors.
 * Protocol tracing is per System (obs/trace_recorder.hh).
 */

#ifndef TCC_COMMON_LOG_HH
#define TCC_COMMON_LOG_HH

namespace tcc {

/**
 * Abort the simulation due to an internal simulator bug.
 * Mirrors gem5 panic(): this should never fire regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Exit the simulation due to a user/configuration error.
 * Mirrors gem5 fatal().
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr without stopping the simulation. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace tcc

#endif // TCC_COMMON_LOG_HH
