#include "gnnbench/core/common.h"

#include <cstdio>
#include <cstdlib>

namespace gnnbench {
namespace core {

void
fatal(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stdout);
    std::fflush(stderr);
    // _Exit, not exit: static destructors must not run.  The thread
    // pool's would join worker threads that a forked child does not
    // have, or that wait on a parallel region this call is inside.
    std::_Exit(1);
}

void
panic(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace core
} // namespace gnnbench
