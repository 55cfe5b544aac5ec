#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace replay {

namespace {

// Sweep workers report concurrently: the handler pointer is atomic and
// each message is emitted under a lock so lines never interleave.  The
// report mutex is a leaf: any thread may warn/panic no matter which
// lock it already holds, and nothing is ever acquired while reporting.
std::atomic<DeathHandler> deathHandler{nullptr};
std::mutex reportMutex;

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::lock_guard<std::mutex> lock(reportMutex);
    std::fprintf(stderr, "%s", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

/**
 * Format, print (with file:line), flush stderr, and hand the message to
 * the death hook if one is installed.  Returns only if a hook is set
 * and itself returned; the caller then terminates.
 */
void
reportDeath(const char *kind, const char *file, int line,
            const char *fmt, va_list ap)
{
    char message[1024];
    std::vsnprintf(message, sizeof(message), fmt, ap);
    {
        std::lock_guard<std::mutex> lock(reportMutex);
        std::fprintf(stderr, "%s: (%s:%d) %s\n", kind, file, line,
                     message);
        std::fflush(stderr);
    }
    if (DeathHandler handler = deathHandler.load())
        handler(kind, file, line, message);
}

} // anonymous namespace

DeathHandler
setDeathHandler(DeathHandler handler)
{
    return deathHandler.exchange(handler);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    reportDeath("panic", file, line, fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    reportDeath("fatal", file, line, fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn: ", fmt, ap);
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("info: ", fmt, ap);
    va_end(ap);
}

} // namespace replay
