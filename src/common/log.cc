#include "common/log.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace tcc {

void
panic(const char *fmt, ...)
{
    std::fprintf(stderr, "panic: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::fprintf(stderr, "warn: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
}

} // namespace tcc
