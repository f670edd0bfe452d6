#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace {

std::uint64_t gAllocs = 0;
std::uint64_t gBytes = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++gAllocs;
    gBytes += size;
    if (void *p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

void
operator delete[](void *p) noexcept
{
    operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    operator delete(p);
}

namespace dbsim::test {

std::uint64_t
heapAllocs()
{
    return gAllocs;
}

std::uint64_t
heapBytes()
{
    return gBytes;
}

} // namespace dbsim::test
