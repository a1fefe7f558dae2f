/**
 * @file
 * The one sanctioned doorway to the process environment.
 *
 * copra_lint bans getenv outside src/util: environment reads are a
 * hidden input channel, and scattering them makes "what did this run
 * depend on?" unanswerable. Every knob goes through here so the full
 * set of recognized variables is greppable in one place
 * (COPRA_THREADS, COPRA_CACHE_DIR, COPRA_METRICS_OUT today).
 */

#pragma once

#include <cstdlib>
#include <string>

namespace copra::util {

/**
 * Raw environment lookup; nullptr when unset. Prefer envString()
 * unless the caller needs to distinguish unset from empty.
 */
inline const char *
envRaw(const char *name)
{
    return std::getenv(name);
}

/** Environment value, or `fallback` when the variable is unset or
 * empty — empty means "not configured" for every copra knob. */
inline std::string
envString(const char *name, const std::string &fallback)
{
    const char *value = envRaw(name);
    return (value != nullptr && value[0] != '\0') ? value : fallback;
}

} // namespace copra::util
