/**
 * @file
 * Error reporting in the gem5 tradition: panic() for internal
 * simulator bugs (aborts), fatal() for user/configuration errors
 * (clean exit), and warn() for suspicious conditions.
 */

#ifndef LATR_SIM_LOGGING_HH_
#define LATR_SIM_LOGGING_HH_

#include <cstdarg>
#include <string>

namespace latr
{

/**
 * Report an internal simulator bug and abort. Use when a condition
 * that should be impossible regardless of user input occurs.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1). Use
 * when the simulation cannot continue due to the caller's input, not
 * a simulator bug.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious condition that does not stop the simulation. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace latr

#endif // LATR_SIM_LOGGING_HH_
